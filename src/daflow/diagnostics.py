"""Numerical certification of the convergence argument.

Each check evaluates one identity or inequality that the convergence proof
of the alternating recursion rests on, directly on the iterates of a
finished trace:

  - the per-step projection identity
    D(p_t || target) = D(p_t || p_(t+1)) + D(p_(t+1) || target);
  - the two-regime comparison between D(p_t || p_(t+n)) and its neighbours:
    an inequality for even n, an exact three-term identity for odd n;
  - the telescoped bound D(p_t || p_(t+n)) <= D(p_t || target) -
    D(p_(t+n) || target);
  - the Cauchy bound (1/2) V(p_t, p_k)^2 <= |D(p_t || target) -
    D(p_k || target)|, which makes the iterates a Cauchy sequence in L1;
  - a finite-horizon proxy for the lower-semicontinuity step
    liminf_n D(p_t || p_(t+n)) >= D(p_t || target);
  - reconstruction of a joint from its two conditional kernels, including a
    compatibility residual that flags conditional pairs not arising from any
    single joint;
  - detailed balance of the two induced single-coordinate Markov kernels.

The last two read the target alone, so `target_table` evaluates them
without a trace. The others read retained joints and the columns of the
trace's records, and never recompute iterates. Every joint a check reads
comes from one source, `DATrace.joints`, as a stack composed from the kept
marginals and validated as `state_at` validates a state, cached nowhere; a
missing state is reported as `StateNotRetained`, never silently filled in.
lemma1 and lemma2's odd identity read the one-step divergence `d_step` that
`run` recorded, summed over the joints. D(p_t || target) is the one value
held twice. `run` records it from p_t's marginal by the chain rule, which
is exact only because p_t carries the target's conditional; `_to_target`
evaluates it on the joints, one stacked call per block of times. lemma1,
lemma3 and lsc certify relations among the divergences of the iterates, so
they read the joint value, evaluated once per sweep for the times they
read, and assume nothing of the iterate's form. cauchy's right side and
lsc's tolerance size a bound instead, so they read the recorded value, the
one the stop rule and the exported trace use, at no pass over the joints.
The two agree to rounding. lemma2 evaluates its grid's divergences, and lsc
its gap's, as one paired call over one stack of the joints they read.

lemma3, cauchy and `cauchy_matrix` read their pairs from `_pair_tiles`. It
cuts the times into blocks, stacks a block of rows and a block of later
columns per tile, and forms lemma3's D(p_t || p_k) or cauchy's V(p_t, p_k)
for the tile's pairs in chunks gathered from those stacks, each chunk one
call of the paired kernel with one correctly rounded sum per pair. So every
value equals `relative_entropy` or `total_variation` on that pair exactly,
and the JSON output is the same as pair by pair. A tile's stacks and a
chunk hold at most a fixed number of values, whatever the number T of
retained times. lemma3 orders each row block's pairs row-major; cauchy
reads the chunks as they come and keeps only the tightest pair. The grid
covers every pair, so its cost is O(T^2); the joints are composed
O(T^2 / B) times in all for blocks of B times.

A sweep's reports are columns (:class:`ReportBlock`): lemma3 gives one
block per row block of times, lemma1 one block and lemma2 one block, its
two check names and their tolerances given per report, their t, n, sides,
residuals or slacks and verdicts as arrays with no object per report, and
the other families give blocks of the reports they return.
`verification_table` raises every refusal when it is called and then
yields the blocks, each family evaluated as its blocks are read.
`verification_chunks` writes each block as it arrives, through
`_fsio.table_chunks`, the table writer the trace exports also use, which
lays a chunk of reports out as byte columns in NumPy, and the summary
last, folded from the blocks' columns as they passed, so a sweep holds one
block at a time. A list of reports is gathered into blocks first, so
`summarize` and `verification_to_json` take the same path.

Every check returns a :class:`LemmaReport`; identities pass when the
absolute residual is at most the tolerance, inequalities when the slack is
no lower than minus the tolerance.
"""

from __future__ import annotations

import enum
import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby

import numpy as np

from ._fsio import JSON_SPECIALS, record_template, table_chunks
from ._numeric import readonly, stable_row_sums, stable_sum
from .dist import (
    Axis,
    ConditionalKernel,
    Direction,
    JointDensity,
    Target,
    compose_raw,
)
from .engine import DATrace
from .errors import (
    DimensionMismatch,
    DistributionError,
    NotConverged,
    StateNotRetained,
    TargetNotPositive,
    ZeroConditional,
)
from .metrics import (
    ExtReal,
    _l1_rows,
    _rel_entropy_array,
    encode,
    total_variation,
)

IDENTITY_TOL = 1e-10
INEQUALITY_TOL = 1e-10
BALANCE_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
LSC_FLOOR = 1e-6


class CheckName(enum.Enum):
    LEMMA1 = "Lemma1"
    LEMMA2_EVEN = "Lemma2Even"
    LEMMA2_ODD = "Lemma2Odd"
    LEMMA3 = "Lemma3"
    CAUCHY = "Cauchy"
    LSC = "LSC"
    DETAILED_BALANCE = "DetailedBalance"
    RECONSTRUCTION = "Reconstruction"


# identity checks compare |residual| to the tolerance; inequality checks
# require slack >= -tolerance
_CHECK_KIND = {
    CheckName.LEMMA1: "identity",
    CheckName.LEMMA2_EVEN: "inequality",
    CheckName.LEMMA2_ODD: "identity",
    CheckName.LEMMA3: "inequality",
    CheckName.CAUCHY: "inequality",
    CheckName.LSC: "identity",
    CheckName.DETAILED_BALANCE: "identity",
    CheckName.RECONSTRUCTION: "identity",
}


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one check instance.

    `lhs` and `rhs` are the two sides of the certified relation as evaluated,
    `residual_or_slack` the comparison summary (absolute defect for
    identities, signed slack for inequalities), and `passed` the verdict on
    it at `tolerance`, computed on construction. `t` and `n` locate the
    instance on the trace; target-level checks carry t=0 and n=None.
    """

    name: CheckName
    t: int
    n: int | None
    lhs: ExtReal
    rhs: ExtReal
    residual_or_slack: float
    passed: bool = field(init=False)
    tolerance: float
    note: str = ""

    def __post_init__(self) -> None:
        if math.isnan(self.residual_or_slack):
            raise DistributionError("report residual must not be NaN")
        object.__setattr__(self, "passed", _verdict(self.name, self.residual_or_slack, self.tolerance))


def _verdict(name: CheckName, value, tolerance: float):
    """The verdict on a residual or slack, or elementwise on an array of them."""
    if _CHECK_KIND[name] == "identity":
        return abs(value) <= tolerance
    return value >= -tolerance


@dataclass(frozen=True, eq=False)
class ReportBlock:
    """Consecutive reports, as columns.

    `name` and `tolerance` are shared by every report, or are tuples of one
    per report. `t`, `lhs`, `rhs` and `value` (the residual or slack) hold
    one entry per report, and `notes` one note per report; `n` does too, or
    is None when every report carries n=None. Infinite sides are float
    infinities. The verdicts `passed` are computed from the values, which
    must not be NaN.
    """

    name: CheckName | tuple[CheckName, ...]
    tolerance: float | tuple[float, ...]
    t: np.ndarray
    n: np.ndarray | None
    lhs: np.ndarray
    rhs: np.ndarray
    value: np.ndarray
    notes: tuple[str, ...]
    passed: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if np.isnan(self.value).any():
            raise DistributionError("report residual must not be NaN")
        if isinstance(self.name, CheckName):
            passed = _verdict(self.name, self.value, self.tolerance)
        else:
            passed = np.array(list(map(_verdict, self.name, self.value.tolist(), self.tolerance)), dtype=bool)
        object.__setattr__(self, "passed", passed)

    def __len__(self) -> int:
        return len(self.t)

    def _per_report(self, column):
        """A name or tolerance column as one entry per report."""
        return column if isinstance(column, tuple) else (column,) * len(self)

    def reports(self) -> list[LemmaReport]:
        """The block's rows as reports, in order."""
        ns = [None] * len(self) if self.n is None else self.n.tolist()
        columns = (self.lhs.tolist(), self.rhs.tolist(), self.value.tolist())
        return [
            LemmaReport(name, t, n, ExtReal(lhs), ExtReal(rhs), value, tolerance, note)
            for name, tolerance, t, n, lhs, rhs, value, note in zip(
                self._per_report(self.name), self._per_report(self.tolerance), self.t.tolist(), ns, *columns, self.notes
            )
        ]

    def values_by_name(self) -> Iterator[tuple[CheckName, np.ndarray]]:
        """Each check name of the block, in order of first report, and the
        values of its reports."""
        if isinstance(self.name, CheckName):
            yield self.name, self.value
            return
        for name in dict.fromkeys(self.name):
            yield name, self.value[np.array([n is name for n in self.name])]


def _gather(reports: Iterable[LemmaReport]) -> list[ReportBlock]:
    """The reports as blocks, one per run of consecutive reports that share a
    name, a tolerance (as written) and whether n is None."""
    blocks = []
    for (name, _, no_n), run in groupby(reports, lambda r: (r.name, repr(r.tolerance), r.n is None)):
        run = list(run)
        t, n, lhs, rhs, value, notes = zip(
            *((r.t, r.n, r.lhs.value, r.rhs.value, r.residual_or_slack, r.note) for r in run)
        )
        floats = (np.array(c, dtype=np.float64) for c in (lhs, rhs, value))
        ints = np.array(t, dtype=np.int64), None if no_n else np.array(n, dtype=np.int64)
        blocks.append(ReportBlock(name, run[0].tolerance, *ints, *floats, notes))
    return blocks


# a tile of the pairwise sweeps stacks its two blocks of times in at most
# this many values (512 KiB of float64), whatever the number of retained times
_BLOCK_VALUES = 1 << 16


def _block_times(cells: int) -> int:
    """How many times a block of `_pair_tiles` holds, for joints of `cells`
    values: a tile's two stacks hold at most _BLOCK_VALUES values and it has
    at most _BLOCK_VALUES pairs, so a chunk's gathered stacks and its
    per-pair arrays stay bounded on wide grids and on grids of a few cells."""
    return max(1, min(_BLOCK_VALUES // (2 * cells), math.isqrt(_BLOCK_VALUES)))


def _to_target(trace: DATrace, times: list[int]) -> dict[int, float]:
    """D(p_t || target) on the joint at each listed time, keyed by t: one
    stacked evaluation per block of times."""
    pi = trace.target.joint.w
    per_block = _block_times(pi.size)
    stacks = (trace.joints(times[lo : lo + per_block]) for lo in range(0, len(times), per_block))
    d = (x for w in stacks for x in _rel_entropy_array(w, np.broadcast_to(pi, w.shape)).tolist())
    return dict(zip(times, d))


def _pair_tiles(
    trace: DATrace, times: list[int], kernel: Callable[[np.ndarray, np.ndarray], Iterable[float]]
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """kernel(p_a, p_b) for every pair of positions a < b in the listed
    times, in chunks (a0, a, b, values): the pairs' positions, one float64
    per pair, and a0, the first position of the chunk's row block.

    The positions are cut into blocks of consecutive times. A tile pairs a
    block of rows with itself or with a later block of columns, stacks each
    with `DATrace.joints`, and gathers its pairs from the stacks in
    row-major order, at most as many at a time as a block holds times: one
    paired-row call of the kernel per chunk. Tiles come row block by row
    block, each one's column blocks in order, so a block's joints are
    composed once as rows and once as columns of each earlier row block.
    """
    m = len(times)
    if m < 2:
        return
    per_block = _block_times(math.prod(trace.target.shape))
    for a0 in range(0, m - 1, per_block):
        a1 = min(a0 + per_block, m)
        rows = trace.joints(times[a0:a1])
        for b0 in range(a0, m, per_block):
            b1 = min(b0 + per_block, m)
            cols = rows if b0 == a0 else trace.joints(times[b0:b1])
            # where each row's pairs end in the tile's row-major order; a
            # row's pairs run from its first column to b1 - 1
            ends = np.cumsum(b1 - np.maximum(np.arange(a0 + 1, a1 + 1), b0))
            for k0 in range(0, int(ends[-1]), per_block):
                k = np.arange(k0, min(k0 + per_block, int(ends[-1])))
                r = np.searchsorted(ends, k, side="right")
                b = k + (b1 - ends[r])
                yield a0, a0 + r, b, np.asarray(kernel(rows[r], cols[b - b0]), dtype=np.float64)


# an identity's note by how many of its two sides are finite
_IDENTITY_NOTES = ("both sides infinite; identity holds vacuously", "exactly one side infinite", "")


def _identity_values(lhs: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Residuals of extended-real identities lhs = rhs, elementwise, and
    their notes.

    Two infinite sides agree vacuously (residual 0); one infinite side is an
    unconditional failure (residual +inf); two finite sides compare
    numerically.
    """
    finite = np.isfinite(lhs).astype(np.int64) + np.isfinite(rhs)
    with np.errstate(invalid="ignore"):
        value = np.where(finite == 2, np.abs(lhs - rhs), np.where(finite == 1, math.inf, 0.0))
    return value, tuple(map(_IDENTITY_NOTES.__getitem__, finite.tolist()))


def validate_instance(check: str, t: int, n: int | None) -> list[int]:
    """Refuse a single instance of lemma1, lemma2, lemma3 or lsc at (t, n)
    outside the check's domain, and return the sorted times it reads; lsc's
    n is its horizon, None for the rest of the trace, whose final state the
    run decides and so is not among the times returned."""
    if check == "lemma1":
        if t < 0:
            raise DistributionError(f"lemma1_check needs t >= 0, got {t}")
        return [t, t + 1]
    if check == "lemma2":
        if t < 1 or n < 1:
            raise DistributionError(f"lemma2_check needs t >= 1 and n >= 1, got t={t}, n={n}")
        return sorted({t, t + 1 if n % 2 else t + n - 1, t + n})
    if check == "lemma3" and (t < 1 or n < 0):
        raise DistributionError(f"lemma3_check needs t >= 1 and n >= 0, got t={t}, n={n}")
    if check == "lsc" and t < 0:
        raise DistributionError(f"lsc_gap needs t >= 0, got {t}")
    if check == "lsc" and n is not None and n < 0:
        raise DistributionError(f"lsc horizon must be >= 0, got {n}")
    return [t] if n is None else sorted({t, t + n})


def lemma1_check(trace: DATrace, t: int) -> LemmaReport:
    """Certify the projection identity at step t:
    D(p_t || target) = D(p_t || p_(t+1)) + D(p_(t+1) || target)."""
    validate_instance("lemma1", t, None)
    return _lemma1_block(trace, [t], _to_target(trace, [t, t + 1])).reports()[0]


def _lemma1_block(trace: DATrace, ts: list[int], d: dict[int, float]) -> ReportBlock:
    """The lemma1 reports at the listed times as one block, built from the
    columns D(p_t || target), D(p_(t+1) || target) and the recorded d_step."""
    lhs = np.array([d[t] for t in ts])
    d_next = np.array([d[t + 1] for t in ts])
    rhs = trace.column("d_step", ts) + d_next
    value, notes = _identity_values(lhs, rhs)
    return ReportBlock(CheckName.LEMMA1, IDENTITY_TOL, np.array(ts, dtype=np.int64), None, lhs, rhs, value, notes)


def lemma2_check(trace: DATrace, t: int, n: int) -> LemmaReport:
    """Certify the n-step comparison at t >= 1.

    Even n: D(p_t || p_(t+n)) <= D(p_t || p_(t+n-1)), reported as slack.
    Odd n: the identity
    D(p_t || p_(t+n)) = D(p_t || p_(t+1)) + D(p_(t+1) || p_(t+n)).
    """
    validate_instance("lemma2", t, n)
    return _lemma2_reports(trace, [(t, n)]).reports()[0]


# an even lemma2 instance's note when both its sides are infinite
_LEMMA2_VACUOUS = "both sides infinite; inequality holds vacuously"


def _lemma2_reports(trace: DATrace, instances: list[tuple[int, int]]) -> ReportBlock:
    """The lemma2 reports at the listed (t, n) as one block, a name and a
    tolerance per report, from one stack of the joints they read and one
    paired evaluation of their divergences: each instance's
    D(p_t || p_(t+n)), then D(p_t || p_(t+n-1)) for even n or
    D(p_(t+1) || p_(t+n)) for odd n, which the odd identity's right side
    adds to the recorded d_step."""
    pairs = [p for t, n in instances for p in ((t, t + n), (t + 1, t + n) if n % 2 else (t, t + n - 1))]
    times = list(dict.fromkeys(s for pair in pairs for s in pair))
    w, row = trace.joints(times), {s: i for i, s in enumerate(times)}
    p, q = zip(*((row[a], row[b]) for a, b in pairs))
    d = _rel_entropy_array(w[list(p)], w[list(q)])
    lhs, other = d[0::2], d[1::2]
    ts, ns = (np.array(c, dtype=np.int64) for c in zip(*instances))
    odd = (ns % 2).astype(bool)
    rhs = np.where(odd, trace.column("d_step", ts.tolist()) + other, other)
    residuals, identity_notes = _identity_values(lhs, rhs)
    vacuous = np.isinf(lhs) & np.isinf(rhs)
    with np.errstate(invalid="ignore"):
        value = np.where(odd, residuals, np.where(vacuous, 0.0, rhs - lhs))
    kinds = [
        (CheckName.LEMMA2_ODD, IDENTITY_TOL, note) if o
        else (CheckName.LEMMA2_EVEN, INEQUALITY_TOL, _LEMMA2_VACUOUS if v else "")
        for o, v, note in zip(odd.tolist(), vacuous.tolist(), identity_notes)
    ]
    names, tolerances, notes = zip(*kinds)
    return ReportBlock(names, tolerances, ts, ns, lhs, rhs, value, notes)


def lemma3_check(trace: DATrace, t: int, n: int) -> LemmaReport:
    """Certify the telescoped bound at t >= 1, n >= 0:
    D(p_t || p_(t+n)) <= D(p_t || target) - D(p_(t+n) || target)."""
    validate_instance("lemma3", t, n)
    return next(_lemma3_rows(trace, [t, t + n], _to_target(trace, [t, t + n]))).reports()[0]


# a lemma3 note by whether the left side is infinite
_LEMMA3_NOTES = ("", "left side infinite with finite right side")


def _lemma3_rows(trace: DATrace, times: list[int], d: dict[int, float]) -> Iterator[ReportBlock]:
    """The lemma3 reports from each listed time t but the last to the times
    after it in the list, in row-major order, one block per row block of
    `_pair_tiles`, each evaluated as it is read. The divergences to the
    target are read, and refused unless finite, once, at the call."""
    to_target = np.array([d[t] for t in times])
    if not np.isfinite(to_target).all():
        raise DistributionError("lemma3_check needs finite divergences to the target")
    ts, per_block = np.array(times, dtype=np.int64), _block_times(math.prod(trace.target.shape))
    tiles = groupby(_pair_tiles(trace, times, _rel_entropy_array), lambda chunk: chunk[0])
    return (_lemma3_block(ts, to_target, a0, per_block, chunks) for a0, chunks in tiles)


def _lemma3_block(ts: np.ndarray, to_target: np.ndarray, a0: int, per_block: int, chunks) -> ReportBlock:
    """The row block from position a0: the D(p_t || p_k) of its chunks, and
    the right sides, slacks and verdicts as arrays."""
    m = len(ts)
    # the row block's pairs in row-major order: row a's run from its first
    # column a + 1, starting at `starts`; the tiles' chunks are written into
    # their slots as they arrive
    rows = np.arange(a0, min(a0 + per_block, m))
    counts = m - 1 - rows
    starts = np.cumsum(counts) - counts
    a = np.repeat(rows, counts)
    b = np.arange(counts.sum()) + np.repeat(rows + 1 - starts, counts)
    lhs = np.empty(len(a))
    for _, ca, cb, values in chunks:
        lhs[starts[ca - a0] + cb - ca - 1] = values
    rhs = to_target[a] - to_target[b]
    # an infinite left side against a finite right side is a slack of -inf
    slack = rhs - lhs
    notes = tuple(map(_LEMMA3_NOTES.__getitem__, np.isinf(lhs).tolist()))
    return ReportBlock(CheckName.LEMMA3, INEQUALITY_TOL, ts[a], ts[b] - ts[a], lhs, rhs, slack, notes)


def cauchy_matrix(trace: DATrace, times: list[int]) -> np.ndarray:
    """Pairwise L1 distances V(p_t, p_k) for the listed retained times."""
    m = len(times)
    out = np.zeros((m, m))
    for _, a, b, v in _pair_tiles(trace, times, _l1_rows):
        out[a, b] = out[b, a] = v
    return readonly(out)


def cauchy_check(trace: DATrace, times: list[int] | None = None) -> LemmaReport:
    """Certify (1/2) V(p_t, p_k)^2 <= |D(p_t || target) - D(p_k || target)|
    over every pair of listed times, reporting the tightest pair.

    Times default to all retained times from t=1 on; the bound is proved for
    iterates, not the arbitrary starting density, so t=0 never participates.
    """
    if times is None:
        times = [t for t in trace.retained_times if t >= 1]
    if len(times) < 2:
        raise StateNotRetained("cauchy_check needs at least two retained times with t >= 1")
    if min(times) < 1:
        raise DistributionError("cauchy_check applies to iterate times t >= 1 only")
    if any(a >= b for a, b in zip(times, times[1:])):
        raise DistributionError(f"cauchy_check needs strictly increasing times, got {times}")
    d = trace.column("d_to_target", times)
    worst = math.inf
    worst_pair = (0, 1)
    worst_sides = (0.0, 0.0)
    # one chunk of pairs at a time, read as it is computed, keeping its first
    # smallest slack when it is below the best so far, or equal to it at an
    # earlier pair: the pair a strict `<` scan over every pair in row-major
    # order picks, whatever the order of the chunks, with memory bounded by
    # a chunk; a NaN slack (inf - inf divergences) is never the tightest
    for _, a, b, vab in _pair_tiles(trace, times, _l1_rows):
        lhs = 0.5 * vab * vab
        with np.errstate(invalid="ignore"):
            rhs = np.abs(d[a] - d[b])
        slack = rhs - lhs
        slack[np.isnan(slack)] = math.inf
        j = int(np.argmin(slack))
        pair = (int(a[j]), int(b[j]))
        if slack[j] < worst or (slack[j] == worst and pair < worst_pair):
            worst, worst_pair, worst_sides = float(slack[j]), pair, (float(lhs[j]), float(rhs[j]))
    t, k = times[worst_pair[0]], times[worst_pair[1]]
    return LemmaReport(
        CheckName.CAUCHY,
        t,
        k - t,
        ExtReal.finite(worst_sides[0]),
        ExtReal.finite(worst_sides[1]),
        worst,
        INEQUALITY_TOL,
        f"tightest pair (t={t}, k={k}) of {len(times)} times",
    )


def lsc_gap(trace: DATrace, t: int, horizon: int) -> LemmaReport:
    """Finite-horizon proxy for the lower-semicontinuity step
    liminf_n D(p_t || p_(t+n)) >= D(p_t || target).

    Evaluates gap = D(p_t || p_(t+horizon)) - D(p_t || target) on a converged
    trace. As the horizon state approaches the target the gap must shrink to
    zero, so the verdict uses the adaptive tolerance
    max(1e-6, 10 * D(p_(t+horizon) || target)). A liminf cannot be certified
    by finite computation; this check is labeled a proxy in its note.

    The gap scales with the L1 distance of the horizon state to the target,
    roughly sqrt(2 * D(p_(t+horizon) || target)), so a trace converged only
    to eps = 1e-10 can carry a legitimate gap above the 1e-6 floor. Run the
    trace to eps around 1e-16 before asking for this check.
    """
    validate_instance("lsc", t, horizon)
    if not trace.converged:
        raise NotConverged("lsc_gap needs a converged trace")
    return _lsc(trace, t, horizon, _to_target(trace, [t]))


def _lsc(trace: DATrace, t: int, horizon: int, d: dict[int, float]) -> LemmaReport:
    w = trace.joints([t, t + horizon])
    lhs, rhs = _rel_entropy_array(w[0], w[1:]).tolist()[0], d[t]
    d_h = float(trace.records.d_to_target[t + horizon])
    tolerance = max(LSC_FLOOR, 10.0 * d_h)
    value, note = lhs - rhs, "finite-horizon proxy for a liminf bound"
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        values, (note,) = _identity_values(np.array([lhs]), np.array([rhs]))
        value = values.tolist()[0]
    return LemmaReport(CheckName.LSC, t, horizon, ExtReal(lhs), ExtReal(rhs), value, tolerance, note)


def reconstruct_from_conditionals(
    cx: ConditionalKernel, cy: ConditionalKernel
) -> tuple[JointDensity, float]:
    """Rebuild a joint from its two conditional kernels.

    Reference row x0 implies the Y marginal u_x0 = cy(. | x0) / cx(x0 | .),
    normalized; composed with cx it yields the joint. Returns the
    reconstruction at x0 = 0, divided by its correctly rounded total and
    validated as a `JointDensity`, and a compatibility residual: the largest
    L1 distance from it to the reconstruction at another row. Each column of
    cx sums to one, so ||u_a cx - u_b cx||_1 = ||u_a - u_b||_1 for any pair
    of kernels, and the residual takes two stacked row sums over nx * ny
    entries instead of a joint per row. It sits at rounding level when the
    kernels come from one joint and is substantially positive when they do
    not, so it doubles as an incompatibility detector.

    Strict positivity of both kernels licenses the division; any zero entry
    raises :class:`ZeroConditional`.
    """
    if cx.direction is not Direction.X_GIVEN_Y or cy.direction is not Direction.Y_GIVEN_X:
        raise DimensionMismatch("reconstruction needs an X-given-Y and a Y-given-X kernel")
    if cx.shape != cy.shape:
        raise DimensionMismatch(f"kernel shapes {cx.shape} and {cy.shape} differ")
    if cx.k.min() <= 0.0 or cy.k.min() <= 0.0:
        raise ZeroConditional("reconstruction requires strictly positive kernels")

    u = cy.k / cx.k
    u /= np.array(stable_row_sums(u))[:, None]
    w = compose_raw(u[0], cx)
    residual = max(_l1_rows(u[0], u[1:])) if len(u) > 1 else 0.0
    return JointDensity(w / stable_sum(w)), residual


def reconstruction_check(target: Target) -> LemmaReport:
    """Certify that a target's own conditionals determine it: the rebuilt
    joint matches within L1 1e-10 and is invariant to the reference row."""
    rebuilt, compat = reconstruct_from_conditionals(
        target.cond_x_given_y, target.cond_y_given_x
    )
    tv = total_variation(rebuilt, target.joint)
    value = max(tv, compat)
    return LemmaReport(
        CheckName.RECONSTRUCTION,
        0,
        None,
        ExtReal.finite(tv),
        ExtReal.finite(compat),
        value,
        RECONSTRUCTION_TOL,
        "lhs: L1 to the original joint; rhs: reference-choice spread",
    )


def induced_marginal_kernel(target: Target, axis: Axis) -> np.ndarray:
    """Transition matrix of one coordinate observed every full sweep.

    For the X coordinate, K[x, x'] = sum_y cond_y_given_x(y | x) *
    cond_x_given_y(x' | y); symmetrically for Y. Rows sum to 1 within 1e-12.
    """
    if not target.strictly_positive:
        raise TargetNotPositive("induced kernels need a strictly positive target")
    k_xgy = target.cond_x_given_y.k
    k_ygx = target.cond_y_given_x.k
    if axis is Axis.X:
        kernel = k_ygx @ k_xgy.T
    else:
        kernel = k_xgy.T @ k_ygx
    return readonly(kernel)


def detailed_balance_residual(target: Target, axis: Axis) -> float:
    """Largest violation of detailed balance for the induced kernel:
    max over (s, s') of |marg(s) K[s, s'] - marg(s') K[s', s]|.

    Zero means the single-coordinate chain is reversible with the target
    marginal as its stationary law; the contract is residual <= 1e-12.
    """
    kernel = induced_marginal_kernel(target, axis)
    marg = target.marg_x.v if axis is Axis.X else target.marg_y.v
    flow = marg[:, None] * kernel
    return float(np.abs(flow - flow.T).max())


def balance_check(target: Target, axis: Axis) -> LemmaReport:
    residual = detailed_balance_residual(target, axis)
    return LemmaReport(
        CheckName.DETAILED_BALANCE,
        0,
        None,
        ExtReal.finite(residual),
        ExtReal.finite(0.0),
        residual,
        BALANCE_TOL,
        f"axis={axis.value}",
    )


# --- the full sweep -----------------------------------------------------------

DEFAULT_CHECKS = ("lemma1", "lemma2", "lemma3", "cauchy", "lsc", "balance", "reconstruction")

# the families whose sweep reads a state before the final one, so a trace
# that keeps only its final state (`--retain none`) gives them no instance
SWEEP_NEEDS_HISTORY = ("lemma1", "lemma2", "lemma3", "cauchy", "lsc")

# the families that read the target alone, no iterate: each as the blocks it
# gives for a target
_TARGET_FAMILIES = {
    "balance": lambda target: _gather([balance_check(target, Axis.X), balance_check(target, Axis.Y)]),
    "reconstruction": lambda target: _gather([reconstruction_check(target)]),
}

LEMMA2_DEFAULT_TS = (1, 2, 3)
LEMMA2_DEFAULT_NS = tuple(range(1, 9))


def validate_checks(checks: tuple[str, ...]) -> None:
    """Reject check names outside DEFAULT_CHECKS, and a name listed twice,
    before any work is done."""
    unknown = [c for c in checks if c not in DEFAULT_CHECKS]
    if unknown:
        raise DistributionError(f"unknown checks {unknown}; valid: {list(DEFAULT_CHECKS)}")
    repeated = sorted({c for c in checks if checks.count(c) > 1})
    if repeated:
        raise DistributionError(f"checks {repeated} are listed more than once")


def run_verification(trace: DATrace, checks: tuple[str, ...] = DEFAULT_CHECKS) -> list[LemmaReport]:
    """The reports of `verification_table`, materialized."""
    return [report for block in verification_table(trace, checks) for report in block.reports()]


def verification_table(trace: DATrace, checks: tuple[str, ...] = DEFAULT_CHECKS) -> Iterator[ReportBlock]:
    """The report blocks of the selected checks over a trace, each family
    evaluated only when its blocks are read.

    Instance grids (which t, which n) follow the retained times. Every
    refusal is raised at the call, before any family spends its work: an
    unconverged trace when lsc is selected; then, in `checks` order, a
    selected check with no runnable instance (:class:`StateNotRetained`,
    since a silent skip would turn a config mistake into a vacuous pass);
    then lemma3's non-finite divergence to the target.

    balance and reconstruction read the trace's target alone, through the
    same functions as `target_table`, which needs no trace: `cmd_verify`
    runs no recursion for a selection of only those two.
    """
    validate_checks(checks)
    if "lsc" in checks and not trace.converged:
        raise NotConverged("lsc check needs a converged trace")
    times = trace.retained_times
    retained, last = set(times), trace.last_t
    lemma1_ts = (
        [t for t in times if retained.issuperset(validate_instance("lemma1", t, None))] if "lemma1" in checks else []
    )
    instances = [
        (t, n) for t in LEMMA2_DEFAULT_TS for n in LEMMA2_DEFAULT_NS
        if retained.issuperset(validate_instance("lemma2", t, n))
    ] if "lemma2" in checks else []
    iterates = [t for t in times if t >= 1]
    anchors = [t for t in iterates if t < last][:1]
    # each family of SWEEP_NEEDS_HISTORY, in its order: (runnable, refusal)
    grids = dict(zip(SWEEP_NEEDS_HISTORY, (
        (lemma1_ts, "lemma1 needs a retained consecutive pair"),
        (instances, "lemma2 found no runnable (t, n) instance"),
        (len(iterates) > 1, "lemma3 needs two retained times with t >= 1"),
        (len(iterates) > 1, "cauchy_check needs at least two retained times with t >= 1"),
        (anchors, "lsc needs a retained time t >= 1 before the final state"),
    )))
    for runnable, message in (grids[c] for c in checks if c in grids):
        if not runnable:
            raise StateNotRetained(message)
    # the times whose D(p_t || target) the selected families read, each evaluated once
    reads = {"lemma1": lemma1_ts + [t + 1 for t in lemma1_ts], "lemma3": iterates, "lsc": anchors}
    d = _to_target(trace, sorted(set().union(*(reads[c] for c in checks if c in reads))))
    lemma3_rows = _lemma3_rows(trace, iterates, d) if "lemma3" in checks else ()
    families = {
        "lemma1": lambda: [_lemma1_block(trace, lemma1_ts, d)],
        "lemma2": lambda: [_lemma2_reports(trace, instances)],
        "lemma3": lambda: lemma3_rows,
        "cauchy": lambda: _gather([cauchy_check(trace, iterates)]),
        "lsc": lambda: _gather([_lsc(trace, anchors[0], last - anchors[0], d)]),
        **{name: partial(family, trace.target) for name, family in _TARGET_FAMILIES.items()},
    }
    return (block for check in checks for block in families[check]())


def target_table(target: Target, checks: tuple[str, ...]) -> Iterator[ReportBlock]:
    """The report blocks of a selection of balance and reconstruction, the
    families that read the target alone, each evaluated only when its blocks
    are read: the blocks `verification_table` gives for them over any trace
    toward `target`, with no trace needed. A family that reads the iterates
    is refused at the call."""
    validate_checks(checks)
    history = [c for c in checks if c not in _TARGET_FAMILIES]
    if history:
        raise DistributionError(f"{history} read the iterates; target_table runs only {list(_TARGET_FAMILIES)}")
    return (block for check in checks for block in _TARGET_FAMILIES[check](target))


def _summarized(blocks: Iterable[ReportBlock], summary: dict) -> Iterator[ReportBlock]:
    """Pass the blocks through and, once they are exhausted, fill `summary`
    with theirs (see `summarize`), one reduction of each block's columns."""
    worst: dict[str, float] = {}
    checks_run = passes = 0
    for block in blocks:
        for name, values in block.values_by_name():
            key = name.value
            if _CHECK_KIND[name] == "identity":
                worst[key] = max(worst.get(key, 0.0), float(np.abs(values).max()))
            else:
                worst[key] = min(worst.get(key, math.inf), float(values[np.argmin(values)]))
        checks_run += len(block)
        passes += int(block.passed.sum())
        yield block
    summary.update(checks_run=checks_run, passes=passes, failures=checks_run - passes)
    summary["worst_residual_by_lemma"] = {k: encode(v) for k, v in worst.items()}


def summarize(reports: Iterable[LemmaReport]) -> dict:
    """Aggregate counts and the worst residual or slack per check name.

    The worst value is the largest absolute residual for an identity and
    the smallest slack for an inequality, the first one in report order on
    a tie, as ``max`` and ``min`` over the reports pick it. It is in
    exported form (see `metrics.encode`), so an infinite residual or slack
    appears as "inf" or "-inf", never as a float infinity that strict JSON
    cannot carry. The reports are gathered into blocks and folded by the
    pass that `verification_chunks` makes as it writes them.
    """
    summary: dict = {}
    for _ in _summarized(_gather(reports), summary):
        pass
    return summary


def report_to_json_dict(report: LemmaReport) -> dict:
    return {
        "name": report.name.value,
        "t": report.t,
        "n": report.n,
        "lhs": encode(report.lhs),
        "rhs": encode(report.rhs),
        "residual_or_slack": encode(report.residual_or_slack),
        "pass": report.passed,
        "tolerance": report.tolerance,
        "note": report.note,
    }


# one report as `json.dumps(doc, indent=1)` writes it inside doc["reports"],
# around its values
_REPORT_PIECES = record_template(
    ("name", "t", "n", "lhs", "rhs", "residual_or_slack", "pass", "tolerance", "note"), 2
).split("%s")


def _text_column(values, text: Callable[[object], str]) -> str | tuple[list[str], np.ndarray]:
    """A block's column as a `_fsio.table_chunks` column: the text of a
    value every report shares, else the texts of the distinct values and
    each report's code."""
    if not isinstance(values, tuple):
        return text(values)
    distinct = dict.fromkeys(values)
    if len(distinct) == 1:
        return text(values[0])
    code = {value: i for i, value in enumerate(distinct)}
    return [text(value) for value in distinct], np.fromiter(map(code.__getitem__, values), np.intp, len(values))


def verification_chunks(blocks: Iterable[ReportBlock], summary: dict) -> Iterator[str]:
    """The verification JSON of the report blocks: each block written as it
    arrives, its reports in the chunks of `_fsio.table_chunks`, and `summary`
    last. An empty `summary` is first filled from the blocks as they pass
    (see `summarize`), so a caller that hands in ``{}`` reads it afterwards."""
    if not summary:
        blocks = _summarized(blocks, summary)
    yield '{\n "reports": ['
    # what goes before the next report: the list's first newline, then the separator
    first = "\n"
    for block in blocks:
        columns = (
            _text_column(block.name, lambda name: json.dumps(name.value)),
            block.t,
            "null" if block.n is None else block.n,
            block.lhs,
            block.rhs,
            block.value,
            (("false", "true"), block.passed.view(np.int8)),
            _text_column(block.tolerance, json.dumps),
            _text_column(block.notes, json.dumps),
        )
        yield from table_chunks(_REPORT_PIECES, columns, len(block), first, ",\n", JSON_SPECIALS)
        if len(block):
            first = ",\n"
    summary_text = json.dumps(summary, indent=1).replace("\n", "\n ")  # one deep
    yield ("]" if first == "\n" else "\n ]") + ',\n "summary": ' + summary_text + "\n}\n"


def verification_to_json(reports: Iterable[LemmaReport], summary: dict | None = None) -> str:
    """The reports and their summary as strict JSON, byte for byte
    ``json.dumps({"reports": [...], "summary": summary}, indent=1) + "\\n"``
    over `report_to_json_dict` of each report.

    Without `summary`, ``summarize(reports)`` is folded as the reports are
    written, in the one walk.
    """
    return "".join(verification_chunks(_gather(reports), {} if summary is None else summary))
