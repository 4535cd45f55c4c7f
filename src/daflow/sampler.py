"""Stochastic cross-validation of the exact density evolution.

`run_chains` simulates the two-coordinate sampler directly: each replica
draws an initial cell from the starting density, then alternates conditional
draws from the target's kernels in the engine's parity (the first draw
refreshes X given Y). Cross-replica histograms at any time must then agree
with the exact iterate densities up to multinomial noise, which is what
`consistency_report` quantifies against the reference scale
sqrt(nx * ny / replicas).

Reproducibility is absolute: replica r consumes its own substream derived
from (seed, r), so draws are bit-identical across runs, independent of
execution order, and stable under changing the replica count (the first r
replicas of a larger run equal a smaller run). Categorical draws use
inverse-CDF lookup against cumulative tables in fixed row-major cell order,
which keeps the stream platform-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    out = np.array(a, dtype=np.int64)
    if out.size and (out.min() < 0 or out.max() >= bound):
        raise DistributionError(f"{what} indices fall outside [0, {bound})")
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class ChainDraws:
    """All replicas' coordinate paths.

    ``xs[r, t]`` and ``ys[r, t]`` are replica r's cell at time t, for
    t = 0..half_steps. Column t of a chain corresponds to the exact iterate
    density at the same t.
    """

    seed: int
    replicas: int
    half_steps: int
    nx: int
    ny: int
    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise DistributionError(f"replicas must be >= 1, got {self.replicas}")
        if self.half_steps < 0:
            raise DistributionError(f"half_steps must be >= 0, got {self.half_steps}")
        shape = (self.replicas, self.half_steps + 1)
        xs = np.asarray(self.xs)
        ys = np.asarray(self.ys)
        if xs.shape != shape or ys.shape != shape:
            raise DimensionMismatch(
                f"draw arrays must have shape {shape}, got {xs.shape} and {ys.shape}"
            )
        object.__setattr__(self, "xs", _frozen_indices(xs, self.nx, "x"))
        object.__setattr__(self, "ys", _frozen_indices(ys, self.ny, "y"))


@dataclass(frozen=True, eq=False)
class EmpiricalDensity:
    """A cross-replica histogram on the grid."""

    counts: np.ndarray
    n: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or np.any(counts < 0):
            raise DistributionError("counts must be a 2-D nonnegative integer matrix")
        if int(counts.sum()) != self.n:
            raise DistributionError(f"counts sum to {int(counts.sum())}, expected n={self.n}")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    def to_joint(self) -> JointDensity:
        if self.n < 1:
            raise DistributionError("cannot normalize an empty histogram")
        return JointDensity(self.counts / self.n)


def _replica_uniforms(seed: int, replicas: int, draws_each: int) -> np.ndarray:
    """One independent uniform substream per replica, keyed by (seed, r)."""
    u = np.empty((replicas, draws_each))
    for r in range(replicas):
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
        u[r] = gen.random(draws_each)
    return u


def _categorical_rows(cum_rows: np.ndarray, u: np.ndarray, n_cats: int) -> np.ndarray:
    """Inverse-CDF draw per row: cum_rows[i] is a cumulative pmf, u[i] its uniform."""
    idx = (cum_rows < u[:, None]).sum(axis=1)
    return np.minimum(idx, n_cats - 1)


def check_chain_request(replicas: int, half_steps: int, seed: int, budget: int | None = None) -> None:
    """Refuse a chain request whose sizes or seed `run_chains` would refuse,
    so a caller can vet it before doing other work.

    The product replicas * half_steps must stay within the budget (the
    module default, unless one is passed).
    """
    if replicas < 1:
        raise DistributionError(f"replicas must be >= 1, got {replicas}")
    if half_steps < 0:
        raise DistributionError(f"half_steps must be >= 0, got {half_steps}")
    if seed < 0:
        raise DistributionError(f"seed must be nonnegative, got {seed}")
    cap = DEFAULT_BUDGET if budget is None else budget
    if replicas * half_steps > cap:
        raise BudgetExceeded(
            f"replicas * half_steps = {replicas * half_steps} exceeds budget {cap}"
        )


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
    cum0 = np.cumsum(p0.w.ravel())
    flat = _categorical_rows(np.broadcast_to(cum0, (replicas, nx * ny)), u[:, 0], nx * ny)
    xs[:, 0] = flat // ny
    ys[:, 0] = flat % ny

    # cumulative conditional tables: row y over x, and row x over y
    cum_x_given_y = np.cumsum(target.cond_x_given_y.k.T, axis=1)
    cum_y_given_x = np.cumsum(target.cond_y_given_x.k, axis=1)

    x, y = xs[:, 0], ys[:, 0]
    for s in range(1, half_steps + 1):
        if (s - 1) % 2 == 0:
            x = _categorical_rows(cum_x_given_y[y], u[:, s], nx)
        else:
            y = _categorical_rows(cum_y_given_x[x], u[:, s], ny)
        xs[:, s] = x
        ys[:, s] = y

    return ChainDraws(seed, replicas, half_steps, nx, ny, xs, ys)


def empirical_at(draws: ChainDraws, t: int) -> EmpiricalDensity:
    """Histogram of all replicas' cells at time t."""
    if not 0 <= t <= draws.half_steps:
        raise IndexOutOfRange(f"t={t} outside this run's range 0..{draws.half_steps}")
    flat = draws.xs[:, t] * draws.ny + draws.ys[:, t]
    counts = np.bincount(flat, minlength=draws.nx * draws.ny).reshape(draws.nx, draws.ny)
    return EmpiricalDensity(counts, draws.replicas)


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


def draws_to_csv(draws: ChainDraws) -> str:
    """All draws as CSV, one row per (replica, time)."""
    lines = [DRAWS_CSV_HEADER]
    for r in range(draws.replicas):
        for t in range(draws.half_steps + 1):
            lines.append(f"{r},{t},{draws.xs[r, t]},{draws.ys[r, t]}")
    return "\n".join(lines) + "\n"
