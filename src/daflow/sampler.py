"""Stochastic cross-validation of the exact density evolution.

`run_chains` simulates the two-coordinate sampler directly: each replica
draws an initial cell from the starting density, then alternates conditional
draws from the target's kernels in the engine's parity (the first draw
refreshes X given Y). Cross-replica histograms at any time must then agree
with the exact iterate densities up to multinomial noise, which is what
`consistency_report` quantifies against the reference scale
sqrt(nx * ny / replicas).

Reproducibility is absolute: the uniform that replica r consumes at time t
is a counter-based hash u = f(seed, r, t) (SplitMix64 mixing in 64-bit
unsigned arithmetic), so draws are bit-identical across runs, independent of
execution order, and stable under changing the replica count or the number
of half-steps (the first r replicas and the first t + 1 times of a larger
run equal a smaller run). Categorical draws use inverse-CDF lookup against
cumulative tables in fixed row-major cell order: the drawn index is the
number of cumulative values at or below u, capped at the last cell of
positive mass, found by a binary search per replica, which keeps the stream
platform-independent and the memory proportional to replicas plus the table.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ._numeric import readonly
from .dist import JointDensity, Target
from .engine import DATrace
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DistributionError,
    IndexOutOfRange,
    TargetNotPositive,
)
from .metrics import total_variation

# generous default cap on replicas * half_steps; the CLI can lower or lift it
DEFAULT_BUDGET = 100_000_000


def _frozen_indices(a: np.ndarray, bound: int, what: str) -> np.ndarray:
    """`a`, nonempty, as a read-only int64 array of indices in [0, bound),
    by `_numeric.readonly`, which keeps the array `run_chains` hands over."""
    out = readonly(a, np.int64)
    if out.min() < 0 or out.max() >= bound:
        raise DistributionError(f"{what} indices fall outside [0, {bound})")
    return out


@dataclass(frozen=True, eq=False)
class ChainDraws:
    """All replicas' coordinate paths.

    ``xs[r, t]`` and ``ys[r, t]`` are replica r's cell at time t, for
    t = 0..half_steps; their shape sets `replicas` and `half_steps`. Column
    t of a chain corresponds to the exact iterate density at the same t.
    """

    seed: int
    replicas: int = field(init=False)
    half_steps: int = field(init=False)
    nx: int
    ny: int
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        if xs.ndim != 2 or xs.shape != ys.shape or xs.size == 0:
            raise DimensionMismatch(
                f"draw arrays must be nonempty 2-D arrays of one shape, got {xs.shape} and {ys.shape}"
            )
        object.__setattr__(self, "replicas", xs.shape[0])
        object.__setattr__(self, "half_steps", xs.shape[1] - 1)
        object.__setattr__(self, "xs", _frozen_indices(xs, self.nx, "x"))
        object.__setattr__(self, "ys", _frozen_indices(ys, self.ny, "y"))


@dataclass(frozen=True, eq=False)
class EmpiricalDensity:
    """A cross-replica histogram on the grid; `n` is its total count."""

    counts: np.ndarray
    n: int = field(init=False)

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or np.any(counts < 0):
            raise DistributionError("counts must be a 2-D nonnegative integer matrix")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "n", int(counts.sum()))

    def to_joint(self) -> JointDensity:
        if self.n < 1:
            raise DistributionError("cannot normalize an empty histogram")
        return JointDensity(self.counts / self.n)


_MASK64 = (1 << 64) - 1
# SplitMix64 increment and finalizer multipliers (Steele, Lea & Flood, OOPSLA 2014)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, a bijection on uint64, applied in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _stream_key(seed: int) -> int:
    """Fold every 64-bit limb of a nonnegative seed, low limb first, into one
    64-bit key; seeds below 2**64 map to distinct keys."""
    key = 0
    while True:
        limb = np.array([((key + _GOLDEN) & _MASK64) ^ (seed & _MASK64)], dtype=np.uint64)
        key = int(_mix64(limb)[0])
        seed >>= 64
        if not seed:
            return key


def _replica_uniforms(seed: int, replicas: int, draws_each: int) -> np.ndarray:
    """Uniforms on [0, 1): entry (r, t) is a hash of (seed, r, t) alone.

    Replica r's key is the SplitMix64 output at counter r + 1 of the seed's
    key; its t-th uniform is the top 53 bits of the SplitMix64 output at
    counter t + 1 of the replica key.
    """
    golden = np.uint64(_GOLDEN)
    replica_keys = np.arange(1, replicas + 1, dtype=np.uint64)
    replica_keys *= golden
    replica_keys += np.uint64(_stream_key(seed))
    _mix64(replica_keys)
    z = replica_keys[:, None] + np.arange(1, draws_each + 1, dtype=np.uint64) * golden
    _mix64(z)
    z >>= np.uint64(11)
    return z.astype(np.float64) * 2.0**-53


def _categorical_rows(cum_table: np.ndarray, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per replica from row rows[i] of a cumulative table.

    The index is (cum_table[rows[i]] <= u[i]).sum(), the first cell whose
    cumulative value exceeds u[i], capped at the row's last cell of positive
    mass; so no draw lands on a zero-mass cell, even at u = 0 or at a u past
    the row's rounded total. It is found by a branchless binary search over
    each nondecreasing row, so memory stays O(replicas + table) and every
    comparison is the exact float comparison.
    """
    n = cum_table.shape[1]
    flat = cum_table.ravel()
    # flat index of cum_table[rows[i], c - 1] is before_row[i] + c
    before_row = rows * n - 1
    below = np.zeros(u.shape, dtype=np.intp)
    step = 1 << (n.bit_length() - 1)
    while step:
        # grow `below` by `step` where the entry at the grown count is still <= u
        grown = below + step
        fits = grown <= n
        fits &= flat[before_row + np.minimum(grown, n)] <= u
        below += step * fits
        step >>= 1
    # a row's last positive-mass cell is the first to reach the row's total
    last_positive = (cum_table < cum_table[:, -1:]).sum(axis=1)
    return np.minimum(below, last_positive[rows])


def check_chain_request(replicas: int, half_steps: int, seed: int, budget: int | None = None) -> None:
    """Refuse a chain request whose sizes or seed `run_chains` would refuse,
    so a caller can vet it before doing other work.

    The product replicas * half_steps must stay within the budget (the
    module default, unless one is passed); a zero-step request counts as
    one step, since every replica still draws its start.
    """
    if replicas < 1:
        raise DistributionError(f"replicas must be >= 1, got {replicas}")
    if half_steps < 0:
        raise DistributionError(f"half_steps must be >= 0, got {half_steps}")
    if seed < 0:
        raise DistributionError(f"seed must be nonnegative, got {seed}")
    cap = DEFAULT_BUDGET if budget is None else budget
    if replicas * max(half_steps, 1) > cap:
        size = f"replicas * half_steps = {replicas * half_steps}" if half_steps else f"replicas = {replicas}"
        raise BudgetExceeded(f"{size} exceeds budget {cap}")


def run_chains(
    target: Target,
    p0: JointDensity,
    replicas: int,
    half_steps: int,
    seed: int,
    budget: int | None = None,
) -> ChainDraws:
    """Simulate `replicas` independent chains for `half_steps` updates.

    Every chain starts from a cell drawn from p0 and alternates conditional
    draws in the engine's parity: the update into odd t redraws X from the
    target's X-given-Y kernel, the update into even t redraws Y. The request
    is vetted by `check_chain_request`.
    """
    if not target.strictly_positive:
        raise TargetNotPositive("chain draws need a strictly positive target")
    if p0.shape != target.shape:
        raise DimensionMismatch(f"p0 is {p0.shape}, target is {target.shape}")
    check_chain_request(replicas, half_steps, seed, budget)

    nx, ny = target.shape
    u = _replica_uniforms(seed, replicas, half_steps + 1)

    xs = np.empty((replicas, half_steps + 1), dtype=np.int64)
    ys = np.empty((replicas, half_steps + 1), dtype=np.int64)

    # initial cell from p0, flattened row-major
    cum0 = np.cumsum(p0.w.ravel())[None, :]
    flat = _categorical_rows(cum0, u[:, 0], np.zeros(replicas, dtype=np.intp))
    xs[:, 0] = flat // ny
    ys[:, 0] = flat % ny

    # cumulative conditional tables: row y over x, and row x over y
    cum_x_given_y = np.cumsum(target.cond_x_given_y.k.T, axis=1)
    cum_y_given_x = np.cumsum(target.cond_y_given_x.k, axis=1)

    x, y = xs[:, 0], ys[:, 0]
    for s in range(1, half_steps + 1):
        if (s - 1) % 2 == 0:
            x = _categorical_rows(cum_x_given_y, u[:, s], y)
        else:
            y = _categorical_rows(cum_y_given_x, u[:, s], x)
        xs[:, s] = x
        ys[:, s] = y

    xs.setflags(write=False)
    ys.setflags(write=False)
    return ChainDraws(seed, nx, ny, xs, ys)


def empirical_at(draws: ChainDraws, t: int) -> EmpiricalDensity:
    """Histogram of all replicas' cells at time t."""
    if not 0 <= t <= draws.half_steps:
        raise IndexOutOfRange(f"t={t} outside this run's range 0..{draws.half_steps}")
    flat = draws.xs[:, t] * draws.ny + draws.ys[:, t]
    counts = np.bincount(flat, minlength=draws.nx * draws.ny).reshape(draws.nx, draws.ny)
    return EmpiricalDensity(counts)


def consistency_report(
    draws: ChainDraws,
    trace: DATrace,
    times: list[int],
    clamp_to_converged_tail: bool = False,
) -> dict:
    """Compare empirical histograms against exact iterates at the given times.

    Each entry reports the L1 distance to the exact density and the 5-sigma
    style bound 5 * sqrt(nx * ny / replicas); `all_within_bound` aggregates.
    The trace must retain every requested time and the draws must cover it.

    With `clamp_to_converged_tail`, a time beyond the end of a converged
    trace compares against the final state instead: past convergence the
    iterates are constant at measurement precision, so the final density is
    the exact iterate for every later time. Such entries carry an
    `exact_state_t` field naming the state actually used.
    """
    if (draws.nx, draws.ny) != trace.target.shape:
        raise DimensionMismatch("draws and trace live on different grids")
    scale = math.sqrt(draws.nx * draws.ny / draws.replicas)
    bound = 5.0 * scale
    entries = []
    for t in times:
        t_exact = t
        if clamp_to_converged_tail and trace.converged and t > trace.last_t:
            t_exact = trace.last_t
        exact = trace.state_at(t_exact).density
        tv = total_variation(empirical_at(draws, t).to_joint(), exact)
        entry = {"t": t, "tv": tv, "bound": bound, "within_bound": bool(tv <= bound)}
        if t_exact != t:
            entry["exact_state_t"] = t_exact
        entries.append(entry)
    return {
        "replicas": draws.replicas,
        "half_steps": draws.half_steps,
        "nx": draws.nx,
        "ny": draws.ny,
        "seed": draws.seed,
        "scale": scale,
        "times": entries,
        "all_within_bound": all(e["within_bound"] for e in entries),
    }


DRAWS_CSV_HEADER = "replica,t,x,y"
# rows formatted per block of the streamed draws CSV
DRAWS_CSV_BLOCK_ROWS = 4096


def _digit_fields(values: np.ndarray, width: int) -> np.ndarray:
    """Each nonnegative value's decimal digits as ASCII, right-aligned in
    `width` bytes behind zero bytes, one void item of that width per value."""
    digits = np.empty((values.size, width), dtype=np.uint8)
    rest, last = np.divmod(values, 10)
    digits[:, -1] = last + ord("0")
    for column in range(width - 2, -1, -1):
        # once a value's digits run out its rest and digit are 0: a zero byte
        written = rest > 0
        rest, digit = np.divmod(rest, 10)
        digits[:, column] = digit + ord("0") * written
    return digits.view(f"V{width}").ravel()


def draws_csv_blocks(draws: ChainDraws) -> Iterator[str]:
    """The draws CSV as consecutive text blocks: the header line, then rows
    (replica, t, x, y) in replica-major order, DRAWS_CSV_BLOCK_ROWS per block,
    so a writer can stream the file without holding all of it.

    A block is encoded as fixed-width records: each value is a field as wide
    as its column's largest value, its digits taken from a table of the
    values the block holds, followed by its comma or newline byte. Dropping
    the zero bytes that pad the fields leaves the rows' text, so scratch
    memory is O(block rows x record width + nx + ny) for any run size.
    """
    yield DRAWS_CSV_HEADER + "\n"
    steps = draws.half_steps + 1
    total = draws.replicas * steps
    xs, ys = draws.xs.ravel(), draws.ys.ravel()
    tops = {"replica": draws.replicas - 1, "t": steps - 1, "x": draws.nx - 1, "y": draws.ny - 1}
    width = {column: len(str(top)) for column, top in tops.items()}
    record = []
    for column, w in width.items():
        record += [(column, f"V{w}"), (column + "_end", "u1")]
    records = np.zeros(min(DRAWS_CSV_BLOCK_ROWS, total), dtype=record)
    for column in width:
        records[column + "_end"] = ord(",")
    records["y_end"] = ord("\n")
    x_fields = _digit_fields(np.arange(draws.nx), width["x"])
    y_fields = _digit_fields(np.arange(draws.ny), width["y"])
    for start in range(0, total, DRAWS_CSV_BLOCK_ROWS):
        stop = min(start + DRAWS_CSV_BLOCK_ROWS, total)
        block = records[: stop - start]
        r, t = np.divmod(np.arange(start, stop), steps)
        block["replica"] = _digit_fields(np.arange(r[0], r[-1] + 1), width["replica"])[r - r[0]]
        # times repeat with period `steps`, so the block's first min(steps,
        # rows) times hold each of its times once, row i's at i % steps
        block["t"] = _digit_fields(t[:steps], width["t"])[np.arange(stop - start) % steps]
        block["x"] = x_fields[xs[start:stop]]
        block["y"] = y_fields[ys[start:stop]]
        chars = block.view(np.uint8)
        yield np.compress(chars != 0, chars).tobytes().decode("ascii")


def draws_to_csv(draws: ChainDraws) -> str:
    """All draws as CSV, one row per (replica, time)."""
    return "".join(draws_csv_blocks(draws))
