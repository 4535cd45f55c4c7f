"""Chain simulation: determinism, alternation structure, and agreement with
the exact density evolution up to multinomial noise."""

from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from conftest import gamma_weights
from daflow.diagnostics import induced_marginal_kernel
from daflow.dist import Axis, JointDensity, make_target, random_positive_target
from daflow.engine import RetainPolicy, run
from daflow.errors import (
    BudgetExceeded,
    DimensionMismatch,
    DistributionError,
    IndexOutOfRange,
    StateNotRetained,
    TargetNotPositive,
)
from daflow.metrics import total_variation
from daflow.sampler import (
    DRAWS_CSV_BLOCK_ROWS,
    DRAWS_CSV_HEADER,
    ChainDraws,
    EmpiricalDensity,
    _categorical_rows,
    _replica_uniforms,
    check_chain_request,
    consistency_report,
    draws_csv_blocks,
    draws_to_csv,
    empirical_at,
    run_chains,
)

DIAG22 = JointDensity(np.array([[0.4, 0.1], [0.1, 0.4]]))

MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64_reference(z: int) -> int:
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def uniform_reference(seed: int, r: int, t: int) -> float:
    """The stream's uniform at (seed, r, t) in plain integers mod 2**64."""
    key = 0
    while True:
        key = mix64_reference(((key + GOLDEN) & MASK64) ^ (seed & MASK64))
        seed >>= 64
        if not seed:
            break
    replica_key = mix64_reference((key + (r + 1) * GOLDEN) & MASK64)
    return (mix64_reference((replica_key + (t + 1) * GOLDEN) & MASK64) >> 11) / 2.0**53


def uniform_at(seed: int, r: int, t: int) -> float:
    return float(_replica_uniforms(seed, r + 1, t + 1)[r, t])


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        target = random_positive_target(3, 4, seed=50)
        p0 = JointDensity(gamma_weights(3, 4, seed=51))
        a = run_chains(target, p0, replicas=500, half_steps=6, seed=9)
        b = run_chains(target, p0, replicas=500, half_steps=6, seed=9)
        npt.assert_array_equal(a.xs, b.xs)
        npt.assert_array_equal(a.ys, b.ys)

    def test_different_seed_differs(self):
        target = random_positive_target(3, 4, seed=50)
        p0 = JointDensity(gamma_weights(3, 4, seed=51))
        a = run_chains(target, p0, replicas=500, half_steps=6, seed=9)
        c = run_chains(target, p0, replicas=500, half_steps=6, seed=10)
        assert (a.xs != c.xs).any() or (a.ys != c.ys).any()

    def test_replica_prefix_stable_under_count_change(self):
        # replica r's substream depends on (seed, r) only, so growing the
        # replica count must not disturb earlier replicas
        target = random_positive_target(3, 4, seed=50)
        p0 = JointDensity(gamma_weights(3, 4, seed=51))
        small = run_chains(target, p0, replicas=50, half_steps=5, seed=4)
        large = run_chains(target, p0, replicas=200, half_steps=5, seed=4)
        npt.assert_array_equal(small.xs, large.xs[:50])
        npt.assert_array_equal(small.ys, large.ys[:50])

    def test_half_step_prefix_stable(self):
        # u depends on (seed, r, t) only, so a longer run extends a shorter one
        target = random_positive_target(3, 4, seed=50)
        p0 = JointDensity(gamma_weights(3, 4, seed=51))
        short = run_chains(target, p0, replicas=300, half_steps=5, seed=4)
        long = run_chains(target, p0, replicas=300, half_steps=9, seed=4)
        npt.assert_array_equal(short.xs, long.xs[:, :6])
        npt.assert_array_equal(short.ys, long.ys[:, :6])

    @pytest.mark.parametrize("seed", [0, 2**64, 2**64 + 1])
    def test_seeds_of_any_size_run(self, seed):
        target = random_positive_target(3, 4, seed=50)
        d = run_chains(target, JointDensity(gamma_weights(3, 4, seed=51)), 200, 4, seed=seed)
        assert d.seed == seed and d.xs.shape == (200, 5)

    def test_seed_limbs_give_distinct_streams(self):
        # 2**64 and 0 share their low limb; 2**64 + 1 differs from 2**64 only there
        streams = [_replica_uniforms(seed, 20, 5) for seed in (0, 2**64, 2**64 + 1)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.any(streams[i] == streams[j])


class TestCounterStream:
    @pytest.mark.parametrize(
        "seed, r, t",
        [(0, 0, 0), (1, 0, 7), (12345, 9, 3), (2**63, 4, 0), (2**64, 2, 1), (2**64 + 1, 2, 1), (3**90, 5, 6)],
    )
    def test_matches_integer_reference(self, seed, r, t):
        assert uniform_at(seed, r, t) == uniform_reference(seed, r, t)

    @pytest.mark.parametrize(
        "seed, r, t, golden",
        [
            (0, 0, 0, "0x1.1c13ade1c7e5cp-3"),
            (5, 3, 2, "0x1.d3f79978a4c41p-1"),
            (2**64, 1, 4, "0x1.96fb5d7a540f0p-2"),
            (2**64 + 1, 1, 4, "0x1.2cfaa72a6415cp-1"),
        ],
    )
    def test_golden_values(self, seed, r, t, golden):
        # pins the stream: changing it changes every draw and every report
        assert uniform_at(seed, r, t) == float.fromhex(golden)

    def test_range_mean_and_variance(self):
        u = _replica_uniforms(7, 1000, 1000)
        n = u.size
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) <= 5.0 * math.sqrt(1.0 / (12.0 * n))
        # Var((U - 1/2)^2) = 1/80 - 1/144 = 1/180 for U uniform on [0, 1)
        assert abs(u.var() - 1.0 / 12.0) <= 5.0 * math.sqrt(1.0 / (180.0 * n))

    def test_neighbours_uncorrelated(self):
        u = _replica_uniforms(11, 1000, 1000)
        for a, b in ((u[:, :-1], u[:, 1:]), (u[:-1], u[1:]), (u[:-1, :-1], u[1:, 1:])):
            corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(corr) <= 5.0 / math.sqrt(a.size)


class TestCategoricalRows:
    @staticmethod
    def reference(cum_table, u, rows):
        # the first cell whose cumulative value exceeds u, capped at the last
        # cell whose cumulative value rises above its predecessor's
        def last_positive(cum):
            rises = [j for j in range(len(cum)) if cum[j] > (cum[j - 1] if j else 0.0)]
            return rises[-1] if rises else 0

        return np.array(
            [min(int((cum_table[row] <= v).sum()), last_positive(cum_table[row])) for row, v in zip(rows, u)]
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 64, 100])
    def test_matches_comparison_count(self, n):
        rng = np.random.default_rng(n)
        k = 5
        w = rng.gamma(0.5, size=(k, n))
        w[0, : n // 2] = 0.0  # leading zero-mass cells
        w[1, n // 2 :] = 0.0  # trailing zero-mass cells
        w[1, 0] = 1.0
        cum = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
        rows = rng.integers(k, size=600)
        u = rng.random(600)
        # uniforms exactly on a cumulative value, at 0, just above and past the end
        cols = rng.integers(n, size=200)
        u[:200] = cum[rows[:200], cols]
        u[200:250] = np.nextafter(u[:50], 2.0)
        u[250:260] = 0.0
        u[260:270] = np.nextafter(1.0, 0.0)
        u[270:280] = cum[rows[270:280], -1]
        got = _categorical_rows(cum, u, rows)
        npt.assert_array_equal(got, self.reference(cum, u, rows))

    def test_single_row_table(self):
        cum = np.cumsum(np.full(2500, 1.0 / 2500))[None, :]
        u = np.linspace(0.0, 1.0, 1001, endpoint=False)
        rows = np.zeros(u.size, dtype=np.intp)
        npt.assert_array_equal(_categorical_rows(cum, u, rows), self.reference(cum, u, rows))

    def test_memory_linear_in_replicas(self):
        # the p0 draw over 2,500 cells used to compare every uniform with
        # every cell: a 263 MB peak at this size
        n, replicas, half_steps = 50, 100_000, 4
        target = random_positive_target(n, n, seed=3)
        p0 = JointDensity(np.full((n, n), 1.0 / n**2))
        tracemalloc.start()
        try:
            run_chains(target, p0, replicas=replicas, half_steps=half_steps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * replicas * (half_steps + 1) + 8 * 4 * n**2

    def test_zero_mass_cells_never_drawn(self):
        # leading and trailing zero-mass cells; only cells 2 and 4 carry mass
        cum = np.cumsum(np.array([[0.0, 0.0, 0.3, 0.0, 0.7, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]]), axis=1)
        u = np.array([0.0, np.nextafter(0.3, 0.0), 0.3, 0.999, cum[0, -1], np.nextafter(cum[0, -1], 2.0), 1.5])
        npt.assert_array_equal(_categorical_rows(cum, u, np.zeros(u.size, dtype=np.intp)), [2, 2, 4, 4, 4, 4, 4])
        npt.assert_array_equal(_categorical_rows(cum, u, np.ones(u.size, dtype=np.intp)), [0, 0, 0, 1, 1, 1, 1])

    def test_memory_without_index_copies(self):
        # the parent's ChainDraws copied both index arrays: a 22.5 MB peak here
        n, replicas, half_steps = 50, 100_000, 4
        target = random_positive_target(n, n, seed=3)
        p0 = JointDensity(np.full((n, n), 1.0 / n**2))
        tracemalloc.start()
        try:
            run_chains(target, p0, replicas=replicas, half_steps=half_steps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # xs, ys and the uniforms, plus the search's per-replica temporaries
        assert peak <= 24 * replicas * (half_steps + 1) + 80 * replicas + 8 * 4 * n**2


class TestChainStructure:
    def test_alternation_holds_exactly(self):
        # odd t refreshes X, so Y must carry over; even t >= 2 refreshes Y
        target = random_positive_target(4, 3, seed=60)
        p0 = JointDensity(gamma_weights(4, 3, seed=61))
        d = run_chains(target, p0, replicas=300, half_steps=9, seed=2)
        for t in range(1, d.half_steps + 1):
            if t % 2 == 1:
                npt.assert_array_equal(d.ys[:, t], d.ys[:, t - 1])
            else:
                npt.assert_array_equal(d.xs[:, t], d.xs[:, t - 1])

    def test_indices_stay_in_bounds(self):
        target = random_positive_target(2, 5, seed=62)
        p0 = JointDensity(gamma_weights(2, 5, seed=63))
        d = run_chains(target, p0, replicas=400, half_steps=8, seed=3)
        assert d.xs.min() >= 0 and d.xs.max() < 2
        assert d.ys.min() >= 0 and d.ys.max() < 5

    def test_zero_half_steps_is_a_p0_draw(self):
        target = make_target(DIAG22)
        d = run_chains(target, DIAG22, replicas=100, half_steps=0, seed=1)
        assert d.xs.shape == (100, 1)

    def test_degenerate_p0_pins_initial_cell(self):
        target = random_positive_target(3, 3, seed=64)
        w = np.zeros((3, 3))
        w[1, 2] = 1.0
        d = run_chains(target, JointDensity(w), replicas=200, half_steps=0, seed=5)
        assert (d.xs[:, 0] == 1).all()
        assert (d.ys[:, 0] == 2).all()

    def test_draw_arrays_are_readonly(self):
        target = make_target(DIAG22)
        d = run_chains(target, DIAG22, replicas=10, half_steps=2, seed=1)
        with pytest.raises(ValueError):
            d.xs[0, 0] = 0

    def test_caller_arrays_are_never_shared(self):
        xs = np.zeros((3, 2), dtype=np.int64)
        view = xs.view()
        view.setflags(write=False)
        d = ChainDraws(1, 2, 2, xs, view)
        xs[0, 0] = 1
        assert d.xs[0, 0] == 0 and d.ys[0, 0] == 0


class TestValidation:
    def test_nonpositive_target_rejected(self):
        t = make_target(
            JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]])), require_positive=False
        )
        with pytest.raises(TargetNotPositive):
            run_chains(t, JointDensity(np.full((2, 2), 0.25)), 10, 2, seed=1)

    def test_dimension_mismatch(self):
        target = random_positive_target(3, 3, seed=1)
        with pytest.raises(DimensionMismatch):
            run_chains(target, DIAG22, 10, 2, seed=1)

    def test_bad_counts_rejected(self):
        target = make_target(DIAG22)
        with pytest.raises(DistributionError):
            run_chains(target, DIAG22, 0, 2, seed=1)
        with pytest.raises(DistributionError):
            run_chains(target, DIAG22, 10, -1, seed=1)
        with pytest.raises(DistributionError):
            run_chains(target, DIAG22, 10, 2, seed=-1)

    def test_budget_enforced_on_product(self):
        target = make_target(DIAG22)
        run_chains(target, DIAG22, replicas=10, half_steps=10, seed=1, budget=100)
        with pytest.raises(BudgetExceeded):
            run_chains(target, DIAG22, replicas=10, half_steps=11, seed=1, budget=100)

    def test_zero_step_request_counts_one_step(self):
        target = make_target(DIAG22)
        with pytest.raises(BudgetExceeded, match=r"^replicas = 10 exceeds budget 5$"):
            check_chain_request(10, 0, 0, budget=5)
        with pytest.raises(BudgetExceeded, match=r"^replicas = 10 exceeds budget 5$"):
            run_chains(target, DIAG22, replicas=10, half_steps=0, seed=0, budget=5)
        check_chain_request(5, 0, 0, budget=5)
        draws = run_chains(target, DIAG22, replicas=5, half_steps=0, seed=0, budget=5)
        assert draws.xs.shape == (5, 1)
        # one step or more keeps the product and its message
        with pytest.raises(BudgetExceeded, match=r"^replicas \* half_steps = 6 exceeds budget 5$"):
            check_chain_request(6, 1, 0, budget=5)

    def test_chaindraws_bounds_validated(self):
        ok = np.zeros((2, 3), dtype=np.int64)
        bad = ok.copy()
        bad[0, 0] = 7
        with pytest.raises(DistributionError):
            ChainDraws(1, 2, 2, bad, ok)

    def test_chaindraws_shape_is_read_from_the_arrays(self):
        xs = np.zeros((3, 5), dtype=np.int64)
        d = ChainDraws(1, 2, 2, xs, xs)
        assert (d.replicas, d.half_steps) == (3, 4)
        assert repr(d).startswith("ChainDraws(seed=1, replicas=3, half_steps=4, nx=2, ny=2, xs=")
        assert ChainDraws(1, 2, 2, xs[:, :1], xs[:, :1]).half_steps == 0

    @pytest.mark.parametrize(
        "xs_shape, ys_shape",
        [((2, 3), (2, 4)), ((2, 3), (3, 3)), ((6,), (6,)), ((1, 2, 3), (1, 2, 3)), ((0, 3), (0, 3)), ((2, 0), (2, 0))],
    )
    def test_chaindraws_refuses_arrays_of_no_one_2d_shape(self, xs_shape, ys_shape):
        message = (
            f"draw arrays must be nonempty 2-D arrays of one shape, got {xs_shape} and {ys_shape}"
        )
        with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
            ChainDraws(1, 2, 2, np.zeros(xs_shape, dtype=np.int64), np.zeros(ys_shape, dtype=np.int64))

    def test_empirical_density_counts_its_total(self):
        e = EmpiricalDensity(np.array([[1, 2], [3, 4]]))
        assert e.n == 10 and type(e.n) is int
        assert repr(e).endswith(", n=10)")
        assert EmpiricalDensity(np.zeros((2, 3), dtype=np.int64)).n == 0
        with pytest.raises(DistributionError):
            EmpiricalDensity(np.array([[-1, 2], [3, 4]]))


class TestEmpirical:
    def test_counts_sum_to_replicas(self):
        target = random_positive_target(3, 4, seed=70)
        p0 = JointDensity(gamma_weights(3, 4, seed=71))
        d = run_chains(target, p0, replicas=750, half_steps=4, seed=8)
        for t in range(5):
            e = empirical_at(d, t)
            assert int(e.counts.sum()) == 750
            assert e.n == 750

    def test_out_of_range_time(self):
        target = make_target(DIAG22)
        d = run_chains(target, DIAG22, replicas=10, half_steps=2, seed=1)
        with pytest.raises(IndexOutOfRange):
            empirical_at(d, 3)
        with pytest.raises(IndexOutOfRange):
            empirical_at(d, -1)

    def test_single_replica_is_a_unit_count(self):
        target = make_target(DIAG22)
        d = run_chains(target, DIAG22, replicas=1, half_steps=2, seed=1)
        e = empirical_at(d, 2)
        assert e.counts.max() == 1 and int(e.counts.sum()) == 1
        assert e.to_joint().w.max() == 1.0


class TestAgreementWithExactEvolution:
    def test_histograms_track_iterates_within_noise(self):
        target = random_positive_target(2, 2, seed=80)
        p0 = JointDensity(np.full((2, 2), 0.25))
        replicas = 100_000
        trace = run(p0, target, max_half_steps=20, eps=1e-300, retain=RetainPolicy.all())
        draws = run_chains(target, p0, replicas=replicas, half_steps=20, seed=17)
        report = consistency_report(draws, trace, times=[0, 1, 2, 5, 20])
        assert report["all_within_bound"]
        assert report["scale"] == pytest.approx(math.sqrt(4 / replicas))
        for entry in report["times"]:
            assert entry["tv"] <= 5.0 * report["scale"]

    def test_clamp_to_converged_tail(self):
        # the exact trace bit-converges before t=20; past convergence the
        # iterate is constant, so the final state stands in for later times
        target = random_positive_target(2, 2, seed=0)
        p0 = JointDensity(np.full((2, 2), 0.25))
        trace = run(p0, target, max_half_steps=20, eps=1e-300)
        assert trace.converged and trace.last_t < 20
        draws = run_chains(target, p0, replicas=20_000, half_steps=20, seed=7)
        report = consistency_report(
            draws, trace, times=[0, 20], clamp_to_converged_tail=True
        )
        assert report["all_within_bound"]
        assert report["times"][1]["exact_state_t"] == trace.last_t
        with pytest.raises(StateNotRetained):
            consistency_report(draws, trace, times=[20])

    def test_report_shape_mismatch_rejected(self):
        target = random_positive_target(3, 3, seed=81)
        other = make_target(DIAG22)
        p0 = JointDensity(gamma_weights(3, 3, seed=82))
        draws = run_chains(target, p0, replicas=10, half_steps=2, seed=1)
        trace = run(DIAG22, other, max_half_steps=4, eps=1e-300)
        with pytest.raises(DimensionMismatch):
            consistency_report(draws, trace, times=[0])

    def test_marginal_chain_matches_induced_kernel(self):
        # X observed every full sweep is a Markov chain with the induced
        # kernel; compare empirical transition rows after burn-in
        target = random_positive_target(3, 3, seed=90, concentration=1000.0)
        p0 = JointDensity(gamma_weights(3, 3, seed=91))
        replicas = 20_000
        draws = run_chains(target, p0, replicas=replicas, half_steps=7, seed=33)
        kernel = induced_marginal_kernel(target, Axis.X)
        x_from, x_to = draws.xs[:, 5], draws.xs[:, 7]
        for row in range(3):
            mask = x_from == row
            count = int(mask.sum())
            freq = np.bincount(x_to[mask], minlength=3) / count
            tv = float(np.abs(freq - kernel[row]).sum())
            assert tv <= 5.0 * math.sqrt(3 / count)


def assert_blocks_match_row_by_row_text(d: ChainDraws) -> None:
    """The streamed blocks equal the CSV written one f-string row at a time,
    DRAWS_CSV_BLOCK_ROWS rows per block after the header."""
    lines = [DRAWS_CSV_HEADER]
    for r in range(d.replicas):
        for t in range(d.half_steps + 1):
            lines.append(f"{r},{t},{d.xs[r, t]},{d.ys[r, t]}")
    blocks = list(draws_csv_blocks(d))
    assert draws_to_csv(d) == "".join(blocks) == "\n".join(lines) + "\n"
    assert blocks[0] == DRAWS_CSV_HEADER + "\n"
    rows = [b.count("\n") for b in blocks[1:]]
    assert sum(rows) == d.replicas * (d.half_steps + 1)
    assert all(r == DRAWS_CSV_BLOCK_ROWS for r in rows[:-1]) and 1 <= rows[-1] <= DRAWS_CSV_BLOCK_ROWS


class TestDrawsCsv:
    def test_header_and_shape(self):
        target = make_target(DIAG22)
        d = run_chains(target, DIAG22, replicas=4, half_steps=2, seed=6)
        text = draws_to_csv(d)
        lines = text.strip().split("\n")
        assert lines[0] == DRAWS_CSV_HEADER
        assert len(lines) == 1 + 4 * 3
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_repeatable(self):
        target = make_target(DIAG22)
        a = draws_to_csv(run_chains(target, DIAG22, replicas=4, half_steps=2, seed=6))
        b = draws_to_csv(run_chains(target, DIAG22, replicas=4, half_steps=2, seed=6))
        assert a == b

    @pytest.mark.parametrize(
        "replicas, half_steps",
        [
            (DRAWS_CSV_BLOCK_ROWS - 1, 0),
            (DRAWS_CSV_BLOCK_ROWS, 0),
            (DRAWS_CSV_BLOCK_ROWS + 1, 0),
            (2 * DRAWS_CSV_BLOCK_ROWS, 0),
            (DRAWS_CSV_BLOCK_ROWS // 3 + 1, 2),
        ],
    )
    def test_blocks_match_row_by_row_text(self, replicas, half_steps):
        target = random_positive_target(3, 4, seed=40)
        d = run_chains(target, target.joint, replicas=replicas, half_steps=half_steps, seed=2)
        assert_blocks_match_row_by_row_text(d)

    @pytest.mark.parametrize(
        "replicas, half_steps, nx, ny",
        [
            # replica counts whose last index adds a digit, one block or many
            (10, 2, 3, 3),
            (100, 2, 3, 3),
            (1001, 3, 2, 2),
            (10_001, 0, 2, 2),
            # time counts whose last index adds a digit, within one block
            (5, 9, 3, 3),
            (5, 10, 3, 3),
            (5, 99, 3, 3),
            (5, 100, 3, 3),
            # grid sides whose last index adds a digit, on either axis
            (7, 1, 1, 1),
            (7, 1, 10, 1),
            (7, 1, 11, 10),
            (7, 1, 101, 11),
            (7, 1, 1, 101),
            # 5 rows per replica: the second block starts inside replica 819
            # and crosses 999 -> 1000 on its way to 1638
            (3000, 4, 11, 101),
            # t spans blocks and crosses 999 -> 1000 and 9999 -> 10000 inside them
            (1, 3 * DRAWS_CSV_BLOCK_ROWS + 5, 2, 3),
            # more times than a block holds, and a block that crosses replicas
            (2, DRAWS_CSV_BLOCK_ROWS + 10, 3, 2),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_digit_width_edges_match_row_by_row_text(self, replicas, half_steps, nx, ny, dtype):
        rng = np.random.default_rng(replicas * 7 + half_steps + nx * ny)
        shape = (replicas, half_steps + 1)
        xs = rng.integers(0, nx, shape).astype(dtype)
        ys = rng.integers(0, ny, shape).astype(dtype)
        # every column reaches its widest and its narrowest value
        xs[0, 0], ys[-1, -1] = nx - 1, ny - 1
        xs[-1, -1], ys[0, 0] = 0, 0
        d = ChainDraws(seed=0, nx=nx, ny=ny, xs=xs, ys=ys)
        assert_blocks_match_row_by_row_text(d)

    @pytest.mark.parametrize("replicas, half_steps", [(100_000, 4), (1, 999_999)])
    def test_block_scratch_memory_is_bounded_by_the_block(self, replicas, half_steps):
        # a digit table over every replica or every time would cost about
        # 5 MB and 54 MB here; one block's records and tables stay near
        # 0.7 MB whatever the run's size
        rng = np.random.default_rng(5)
        shape = (replicas, half_steps + 1)
        d = ChainDraws(0, 50, 50, rng.integers(0, 50, shape), rng.integers(0, 50, shape))
        tracemalloc.start()
        try:
            rows = 0
            for block in draws_csv_blocks(d):
                rows += block.count("\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == 1 + replicas * (half_steps + 1)
        assert peak <= 256 * DRAWS_CSV_BLOCK_ROWS
