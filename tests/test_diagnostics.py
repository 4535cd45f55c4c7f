"""Certification checks: projection identities, comparison bounds, Cauchy
property, reconstruction, and reversibility of induced kernels."""

from __future__ import annotations

import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import daflow.diagnostics as diagnostics
from conftest import gamma_weights
from daflow.diagnostics import (
    CheckName,
    DEFAULT_CHECKS,
    LemmaReport,
    balance_check,
    cauchy_check,
    cauchy_matrix,
    detailed_balance_residual,
    induced_marginal_kernel,
    lemma1_check,
    lemma2_check,
    lemma3_check,
    lsc_gap,
    reconstruct_from_conditionals,
    reconstruction_check,
    report_to_json_dict,
    run_verification,
    summarize,
    verification_to_json,
)
from daflow.dist import (
    Axis,
    JointDensity,
    MarginalDensity,
    independence_target,
    make_target,
    random_positive_target,
)
from daflow.engine import RetainPolicy, run
from daflow.errors import (
    DimensionMismatch,
    DistributionError,
    NotConverged,
    StateNotRetained,
    TargetNotPositive,
    ZeroConditional,
)
from daflow.metrics import ExtReal, _l1_rows, _rel_entropy_rows, relative_entropy, total_variation

DIAG22 = JointDensity(np.array([[0.4, 0.1], [0.1, 0.4]]))


def make_trace(nx=5, ny=4, seed=70, steps=20, eps=1e-300, retain=RetainPolicy.all()):
    target = random_positive_target(nx, ny, seed=seed)
    p0 = JointDensity(gamma_weights(nx, ny, seed=seed + 1000))
    return run(p0, target, max_half_steps=steps, eps=eps, retain=retain)


def converged_trace(nx=5, ny=4, seed=70):
    # deep eps: the lsc proxy needs the horizon state within ~1e-8 of the
    # target in L1, far tighter than ordinary convergence reporting
    target = random_positive_target(nx, ny, seed=seed)
    p0 = JointDensity(gamma_weights(nx, ny, seed=seed + 1000))
    return run(p0, target, max_half_steps=10_000, eps=1e-16)


class TestLemma1:
    def test_residual_small_on_random_trace(self):
        trace = make_trace()
        for t in range(trace.last_t):
            report = lemma1_check(trace, t)
            assert report.name is CheckName.LEMMA1
            assert report.passed
            assert report.residual_or_slack <= 1e-10

    def test_at_target_everything_is_zero(self):
        target = make_target(DIAG22)
        trace = run(DIAG22, target, max_half_steps=5, eps=1e-300)
        # converges at t=0; force two retained steps by starting off-target
        trace = run(
            JointDensity(np.array([[0.4 + 1e-13, 0.1, ], [0.1, 0.4 - 1e-13]])),
            target,
            max_half_steps=5,
            eps=1e-300,
        )
        report = lemma1_check(trace, 0)
        assert report.passed
        assert report.lhs.value <= 1e-12

    def test_vacuous_pass_when_both_sides_infinite(self):
        # a target with a zero cell makes D(p0 || target) infinite while the
        # trace still holds the single initial state
        target = make_target(
            JointDensity(np.array([[0.5, 0.0], [0.25, 0.25]])), require_positive=False
        )
        p0 = JointDensity(np.full((2, 2), 0.25))
        trace = run(p0, target, max_half_steps=4, eps=1e-10)
        # manually extend: build a two-state trace via the engine internals is
        # not possible for a non-positive target, so check the identity helper
        # through lemma1_check on a crafted trace of the positive sub-case
        # instead: both sides infinite cannot arise on a runnable trace, so
        # assert the infinite-divergence record is represented explicitly
        assert not trace.records[0].d_to_target.is_finite
        with pytest.raises(StateNotRetained):
            lemma1_check(trace, 0)

    def test_missing_state_raises(self):
        trace = make_trace(retain=RetainPolicy.none())
        with pytest.raises(StateNotRetained):
            lemma1_check(trace, 0)

    def test_negative_t_rejected(self):
        trace = make_trace()
        with pytest.raises(DistributionError):
            lemma1_check(trace, -1)


class TestLemma2:
    def test_even_slack_nonnegative(self):
        trace = make_trace(steps=16)
        for t in (1, 2, 3):
            for n in (2, 4, 6, 8):
                report = lemma2_check(trace, t, n)
                assert report.name is CheckName.LEMMA2_EVEN
                assert report.passed
                assert report.residual_or_slack >= -1e-10

    def test_odd_identity_residual_small(self):
        trace = make_trace(steps=16)
        for t in (1, 2, 3):
            for n in (1, 3, 5, 7):
                report = lemma2_check(trace, t, n)
                assert report.name is CheckName.LEMMA2_ODD
                assert report.passed
                assert report.residual_or_slack <= 1e-10

    def test_n_equal_one_collapses_to_tautology(self):
        trace = make_trace(steps=8)
        report = lemma2_check(trace, 2, 1)
        # D(p_t || p_(t+1)) = D(p_t || p_(t+1)) + D(p_(t+1) || p_(t+1))
        assert report.residual_or_slack == 0.0

    def test_argument_validation(self):
        trace = make_trace(steps=8)
        with pytest.raises(DistributionError):
            lemma2_check(trace, 0, 2)
        with pytest.raises(DistributionError):
            lemma2_check(trace, 1, 0)

    def test_missing_states_raise(self):
        trace = make_trace(steps=16, retain=RetainPolicy.thin(5))
        with pytest.raises(StateNotRetained):
            lemma2_check(trace, 1, 2)


class TestLemma3:
    def test_slack_nonnegative_across_pairs(self):
        trace = make_trace(steps=14)
        for t in (1, 2, 3):
            for n in range(0, 9):
                report = lemma3_check(trace, t, n)
                assert report.passed
                assert report.residual_or_slack >= -1e-10

    def test_n_zero_is_exact(self):
        trace = make_trace(steps=6)
        report = lemma3_check(trace, 2, 0)
        assert report.residual_or_slack == 0.0

    def test_n_one_coincides_with_projection_identity(self):
        trace = make_trace(steps=6)
        report = lemma3_check(trace, 1, 1)
        assert abs(report.residual_or_slack) <= 1e-10

    def test_argument_validation(self):
        trace = make_trace(steps=6)
        with pytest.raises(DistributionError):
            lemma3_check(trace, 0, 1)
        with pytest.raises(DistributionError):
            lemma3_check(trace, 1, -1)


class TestCauchy:
    def test_matrix_is_symmetric_with_zero_diagonal(self):
        trace = make_trace(steps=12)
        times = [1, 4, 7, 10]
        m = cauchy_matrix(trace, times)
        npt.assert_array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)

    def test_bound_holds_for_all_pairs(self):
        trace = make_trace(steps=20)
        report = cauchy_check(trace)
        assert report.name is CheckName.CAUCHY
        assert report.passed
        assert report.residual_or_slack >= -1e-10

    def test_distances_shrink_along_the_trace(self):
        trace = make_trace(steps=14)
        times = [1, 5, 9, 13]
        m = cauchy_matrix(trace, times)
        early = m[0, 1:].max()
        late = m[2, 3]
        assert late < early

    def test_rejects_time_zero(self):
        trace = make_trace(steps=6)
        with pytest.raises(DistributionError):
            cauchy_check(trace, times=[0, 2, 4])

    def test_needs_two_times(self):
        trace = make_trace(steps=6, retain=RetainPolicy.none())
        with pytest.raises(StateNotRetained):
            cauchy_check(trace)


class TestLsc:
    def test_gap_small_on_converged_trace(self):
        trace = converged_trace()
        report = lsc_gap(trace, 1, trace.last_t - 1)
        assert report.name is CheckName.LSC
        assert report.passed
        assert "proxy" in report.note

    def test_zero_horizon_gap_is_minus_divergence(self):
        trace = converged_trace()
        report = lsc_gap(trace, 1, 0)
        d1 = trace.record_at(1).d_to_target.value
        assert report.residual_or_slack == pytest.approx(-d1, abs=1e-15)

    def test_unconverged_trace_rejected(self):
        trace = make_trace(steps=3)
        with pytest.raises(NotConverged):
            lsc_gap(trace, 1, 2)

    def test_negative_horizon_rejected(self):
        trace = converged_trace()
        with pytest.raises(DistributionError):
            lsc_gap(trace, 1, -1)


class TestReconstruction:
    def test_recovers_joint_from_own_conditionals(self):
        for seed in (1, 6, 30):
            target = random_positive_target(4, 6, seed=seed)
            rebuilt, residual = reconstruct_from_conditionals(
                target.cond_x_given_y, target.cond_y_given_x
            )
            assert total_variation(rebuilt, target.joint) <= 1e-10
            assert residual <= 1e-10

    def test_independence_target_reconstructs_product(self):
        px = MarginalDensity(Axis.X, np.array([0.3, 0.7]))
        py = MarginalDensity(Axis.Y, np.array([0.2, 0.5, 0.3]))
        target = independence_target(px, py)
        rebuilt, residual = reconstruct_from_conditionals(
            target.cond_x_given_y, target.cond_y_given_x
        )
        npt.assert_allclose(rebuilt.w, np.outer(px.v, py.v), atol=1e-14)
        assert residual <= 1e-12

    def test_incompatible_pair_is_flagged(self):
        a = random_positive_target(3, 3, seed=11)
        b = random_positive_target(3, 3, seed=12)
        _, residual = reconstruct_from_conditionals(a.cond_x_given_y, b.cond_y_given_x)
        assert residual > 0.01

    def test_zero_conditional_rejected(self):
        t = make_target(
            JointDensity(np.array([[0.5, 0.0], [0.25, 0.25]])), require_positive=False
        )
        pos = random_positive_target(2, 2, seed=4)
        with pytest.raises(ZeroConditional):
            reconstruct_from_conditionals(t.cond_x_given_y, pos.cond_y_given_x)

    def test_direction_validation(self):
        t = random_positive_target(2, 2, seed=4)
        with pytest.raises(DimensionMismatch):
            reconstruct_from_conditionals(t.cond_y_given_x, t.cond_y_given_x)

    def test_shape_validation(self):
        a = random_positive_target(2, 3, seed=4)
        b = random_positive_target(3, 3, seed=4)
        with pytest.raises(DimensionMismatch):
            reconstruct_from_conditionals(a.cond_x_given_y, b.cond_y_given_x)

    def test_check_wrapper_passes_on_targets(self):
        report = reconstruction_check(random_positive_target(5, 5, seed=8))
        assert report.name is CheckName.RECONSTRUCTION
        assert report.passed


class TestInducedKernels:
    def test_double_sum_oracle_on_diagonal_target(self):
        target = make_target(DIAG22)
        k = induced_marginal_kernel(target, Axis.X)
        # independent elementwise oracle
        kx = target.cond_x_given_y.k
        ky = target.cond_y_given_x.k
        expected = np.zeros((2, 2))
        for x in range(2):
            for xp in range(2):
                expected[x, xp] = sum(ky[x, y] * kx[xp, y] for y in range(2))
        npt.assert_allclose(k, expected, atol=1e-15)
        npt.assert_allclose(k, [[0.68, 0.32], [0.32, 0.68]], atol=1e-12)
        # X marginal (0.5, 0.5) is stationary
        npt.assert_allclose((np.array([0.5, 0.5]) @ k), [0.5, 0.5], atol=1e-15)

    def test_rows_are_stochastic(self):
        for seed in (2, 9):
            target = random_positive_target(6, 3, seed=seed)
            for axis in (Axis.X, Axis.Y):
                k = induced_marginal_kernel(target, axis)
                side = target.nx if axis is Axis.X else target.ny
                assert k.shape == (side, side)
                npt.assert_allclose(k.sum(axis=1), np.ones(side), atol=1e-12)

    def test_independence_target_mixes_in_one_step(self):
        px = MarginalDensity(Axis.X, np.array([0.25, 0.5, 0.25]))
        py = MarginalDensity(Axis.Y, np.array([0.4, 0.6]))
        target = independence_target(px, py)
        k = induced_marginal_kernel(target, Axis.X)
        for row in k:
            npt.assert_allclose(row, px.v, atol=1e-14)

    def test_singleton_axis_kernel_is_identity(self):
        target = random_positive_target(1, 5, seed=3)
        npt.assert_allclose(induced_marginal_kernel(target, Axis.X), [[1.0]], atol=1e-15)

    def test_nonpositive_target_rejected(self):
        t = make_target(
            JointDensity(np.array([[0.5, 0.0], [0.25, 0.25]])), require_positive=False
        )
        with pytest.raises(TargetNotPositive):
            induced_marginal_kernel(t, Axis.X)


class TestDetailedBalance:
    def test_residual_tiny_on_random_targets(self):
        for seed in range(6):
            target = random_positive_target(5, 7, seed=seed)
            assert detailed_balance_residual(target, Axis.X) <= 1e-12
            assert detailed_balance_residual(target, Axis.Y) <= 1e-12

    def test_independence_target_exactly_balanced(self):
        px = MarginalDensity(Axis.X, np.array([0.3, 0.7]))
        py = MarginalDensity(Axis.Y, np.array([0.5, 0.5]))
        target = independence_target(px, py)
        assert detailed_balance_residual(target, Axis.X) <= 1e-15

    def test_symmetric_target_balanced(self):
        w = gamma_weights(4, 4, seed=44)
        sym = (w + w.T) / 2
        target = make_target(JointDensity(sym / sym.sum()))
        assert detailed_balance_residual(target, Axis.X) <= 1e-12
        assert detailed_balance_residual(target, Axis.Y) <= 1e-12

    def test_check_wrapper(self):
        report = balance_check(random_positive_target(3, 3, seed=21), Axis.Y)
        assert report.name is CheckName.DETAILED_BALANCE
        assert report.passed
        assert "axis=y" in report.note


class TestReportPlumbing:
    def test_report_verdict_consistency_enforced(self):
        with pytest.raises(DistributionError):
            LemmaReport(
                CheckName.LEMMA1, 0, None,
                ExtReal.finite(1.0), ExtReal.finite(1.0),
                0.0, False, 1e-10,
            )

    def test_full_sweep_passes_and_summarizes(self):
        trace = converged_trace()
        reports = run_verification(trace)
        assert all(r.passed for r in reports)
        summary = summarize(reports)
        assert summary["checks_run"] == len(reports)
        assert summary["passes"] == len(reports)
        assert summary["failures"] == 0
        assert set(summary["worst_residual_by_lemma"]) == {
            r.name.value for r in reports
        }
        assert summary["worst_residual_by_lemma"]["Lemma1"] <= 1e-10

    def test_sweep_with_retention_gaps_raises_config_error(self):
        trace = make_trace(steps=20, retain=RetainPolicy.none())
        with pytest.raises(StateNotRetained):
            run_verification(trace, checks=("lemma3",))

    def test_sweep_rejects_unknown_check(self):
        trace = converged_trace()
        with pytest.raises(DistributionError):
            run_verification(trace, checks=("lemma9",))

    def test_json_report_is_strict_json(self):
        trace = converged_trace()
        text = verification_to_json(run_verification(trace))
        doc = json.loads(text)
        assert set(doc) == {"reports", "summary"}
        first = doc["reports"][0]
        assert set(first) == {
            "name", "t", "n", "lhs", "rhs", "residual_or_slack", "pass", "tolerance", "note",
        }
        assert doc["summary"]["failures"] == 0

    def test_report_json_renders_infinities_as_strings(self):
        r = LemmaReport(
            CheckName.LEMMA1, 0, None,
            ExtReal.pos_infinity(), ExtReal.pos_infinity(),
            0.0, True, 1e-10, "both sides infinite; identity holds vacuously",
        )
        obj = report_to_json_dict(r)
        assert obj["lhs"] == "inf" and obj["rhs"] == "inf"
        json.dumps(obj)

    def test_summary_infinities_are_strict_json(self):
        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        reports = [
            LemmaReport(
                CheckName.LEMMA1, 0, None,
                ExtReal.pos_infinity(), ExtReal.finite(1.0),
                math.inf, False, 1e-10, "exactly one side infinite",
            ),
            LemmaReport(
                CheckName.LEMMA3, 1, 1,
                ExtReal.pos_infinity(), ExtReal.finite(0.5),
                -math.inf, False, 1e-10, "left side infinite with finite right side",
            ),
        ]
        doc = json.loads(verification_to_json(reports), parse_constant=reject)
        assert doc["summary"]["worst_residual_by_lemma"] == {"Lemma1": "inf", "Lemma3": "-inf"}
        assert [r["residual_or_slack"] for r in doc["reports"]] == ["inf", "-inf"]


def reference_divergence(p, q):
    """D(p||q) summed over the whole grid, one pair at a time."""
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    terms = np.zeros_like(p)
    terms[support] = p[support] * np.log(p[support] / q[support])
    return max(math.fsum(terms.ravel().tolist()), 0.0)


def degenerate_trace(nx, ny, cell, steps=12):
    w = np.zeros((nx, ny))
    w[cell] = 1.0
    return run(JointDensity(w), random_positive_target(nx, ny, seed=71), max_half_steps=steps, eps=1e-300)


ROW_CASES = {
    "random": lambda: make_trace(6, 5, seed=3, steps=12),
    "random-square": lambda: make_trace(4, 4, seed=8, steps=12),
    "degenerate": lambda: degenerate_trace(5, 4, (2, 3)),
    "nx1": lambda: make_trace(1, 6, seed=5, steps=8),
    "ny1": lambda: make_trace(6, 1, seed=6, steps=8),
}


class TestPairRows:
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_rows_equal_pairwise_values_exactly(self, case, monkeypatch):
        trace = ROW_CASES[case]()
        # blocks of three rows, so a row spans several stacks
        monkeypatch.setattr(diagnostics, "_BLOCK_VALUES", 3 * trace.target.joint.w.size)
        densities = [trace.state_at(t).density for t in trace.retained_times]
        weights = [p.w for p in densities]
        infinite = 0
        for p in densities:
            d_row = diagnostics._stacked_rows(_rel_entropy_rows, p.w, weights)
            v_row = diagnostics._stacked_rows(_l1_rows, p.w, weights)
            assert len(d_row) == len(v_row) == len(densities)
            for q, d, v in zip(densities, d_row, v_row):
                assert d == relative_entropy(p, q)
                assert d.value == reference_divergence(p.w, q.w)
                assert v == total_variation(p, q)
                assert v == math.fsum(np.abs(p.w - q.w).ravel().tolist())
                infinite += not d.is_finite
        if case == "degenerate":
            # p_1 lives on the starting column, so D(p_t || p_1) = +inf for t >= 2
            assert infinite > 0

    def test_cauchy_matrix_equals_pairwise_distances(self, monkeypatch):
        trace = degenerate_trace(5, 4, (2, 3))
        monkeypatch.setattr(diagnostics, "_BLOCK_VALUES", 2 * trace.target.joint.w.size)
        times = trace.retained_times
        v = cauchy_matrix(trace, times)
        densities = [trace.state_at(t).density for t in times]
        for a, p in enumerate(densities):
            for b, q in enumerate(densities):
                assert v[a, b] == (0.0 if a == b else total_variation(p, q))

    def test_sweep_allocates_one_block_of_rows(self):
        n, steps = 60, 299
        i = np.arange(n)
        w = np.exp(-2.0 * np.abs(i[:, None] - i[None, :]))  # slowly mixing
        target = make_target(JointDensity(w / w.sum()))
        trace = run(JointDensity(np.full((n, n), 1.0 / n**2)), target, max_half_steps=steps, eps=1e-300)
        times = trace.retained_times
        assert len(times) == steps + 1
        # the retained joints and their divergences to the target exist before the sweep
        d = diagnostics._ToTarget(trace)
        for t in times:
            d[t]
        later = times[2:]
        weights = [trace.state_at(t).density.w for t in later]
        stacked = len(later) * n * n * 8  # what stacking every later joint would take
        block = diagnostics._BLOCK_VALUES * 8
        for sweep in (
            lambda: diagnostics._lemma3_row(trace, 1, later, d),
            lambda: diagnostics._stacked_rows(_l1_rows, trace.state_at(1).density.w, weights),
        ):
            tracemalloc.start()
            try:
                result = sweep()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(result) == len(later)
            # beyond what it returns, a row sweep holds one block of stacked
            # rows and a few block-sized elementwise temporaries
            assert peak - current <= 4 * block
            assert peak - current < stacked / 4

    def test_divergence_to_target_once_per_time(self, monkeypatch):
        trace = converged_trace()
        pi = trace.target.joint
        original = diagnostics.relative_entropy
        seen = []

        def counted(p, q):
            if q is pi:
                seen.append(id(p))
            return original(p, q)

        monkeypatch.setattr(diagnostics, "relative_entropy", counted)
        reports = run_verification(trace, ("lemma1", "lemma3", "lsc"))
        assert {r.name for r in reports} == {CheckName.LEMMA1, CheckName.LEMMA3, CheckName.LSC}
        expected = [id(trace.state_at(t).density) for t in trace.retained_times]
        assert sorted(seen) == sorted(expected)


def cauchy_loop_reference(trace, times=None) -> LemmaReport:
    """The tightest Cauchy pair found by a strict `<` scan over every pair in
    row-major order, one pair at a time."""
    if times is None:
        times = [t for t in trace.retained_times if t >= 1]
    v = diagnostics.cauchy_matrix(trace, times)
    d = [trace.record_at(t).d_to_target.value for t in times]
    worst, worst_pair, worst_sides = math.inf, (times[0], times[1]), (0.0, 0.0)
    for a in range(len(times)):
        for b in range(a + 1, len(times)):
            vab = float(v[a, b])
            lhs = 0.5 * vab * vab
            rhs = abs(d[a] - d[b])
            if rhs - lhs < worst:
                worst, worst_pair, worst_sides = rhs - lhs, (times[a], times[b]), (lhs, rhs)
    return diagnostics._report(
        CheckName.CAUCHY, worst_pair[0], worst_pair[1] - worst_pair[0],
        ExtReal.finite(worst_sides[0]), ExtReal.finite(worst_sides[1]), worst,
        diagnostics.INEQUALITY_TOL,
        f"tightest pair (t={worst_pair[0]}, k={worst_pair[1]}) of {len(times)} times",
    )


def stub_trace(d: list[float]):
    """A trace with retained times 1..len(d) whose divergences to the target
    are `d`; only what cauchy_check reads besides the distance matrix."""
    records = {t: SimpleNamespace(d_to_target=ExtReal(x)) for t, x in enumerate(d, start=1)}
    return SimpleNamespace(retained_times=sorted(records), record_at=records.__getitem__)


def assert_same_report(got: LemmaReport, want: LemmaReport) -> None:
    assert got == want
    assert json.dumps(report_to_json_dict(got)) == json.dumps(report_to_json_dict(want))


class TestCauchyScan:
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_real_traces(self, case):
        trace = ROW_CASES[case]()
        if len([t for t in trace.retained_times if t >= 1]) < 2:
            pytest.skip("fewer than two iterate times")
        assert_same_report(cauchy_check(trace), cauchy_loop_reference(trace))
        times = [t for t in trace.retained_times if t >= 1][::2]
        if len(times) >= 2:
            assert_same_report(cauchy_check(trace, times), cauchy_loop_reference(trace, times))

    @pytest.mark.parametrize("seed", range(12))
    def test_tied_slacks(self, seed, monkeypatch):
        # dyadic distances and divergences from small sets, so many pairs
        # share the smallest slack exactly
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        v = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, m))
        v = np.triu(v, 1) + np.triu(v, 1).T
        d = rng.choice([0.0, 0.03125, 0.5, 1.0], size=m).tolist()
        if seed % 4 == 3:
            k = int(rng.integers(1, m + 1))
            d[:k] = [math.inf] * k
        monkeypatch.setattr(diagnostics, "cauchy_matrix", lambda trace, times: v)
        trace = stub_trace(d)
        assert_same_report(cauchy_check(trace), cauchy_loop_reference(trace))

    def test_all_pairs_infinite_keep_the_default_pair(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "cauchy_matrix", lambda trace, times: np.zeros((3, 3)))
        trace = stub_trace([math.inf, math.inf, math.inf])
        report = cauchy_check(trace)
        assert_same_report(report, cauchy_loop_reference(trace))
        assert (report.t, report.n, report.residual_or_slack) == (1, 1, math.inf)

    def test_scan_memory_is_linear_in_the_times(self, monkeypatch):
        m = 1200
        rng = np.random.default_rng(5)
        v = rng.random((m, m))
        v = np.triu(v, 1) + np.triu(v, 1).T
        d = np.sort(rng.random(m))[::-1].tolist()
        monkeypatch.setattr(diagnostics, "cauchy_matrix", lambda trace, times: v)
        trace = stub_trace(d)
        tracemalloc.start()
        try:
            report = cauchy_check(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_report(report, cauchy_loop_reference(trace))
        # a few rows of temporaries and the divergence list, not arrays over
        # all m(m-1)/2 pairs (5.8 MB each here)
        assert peak < 40 * m * 8


def fail_if_called(*args, **kwargs):
    raise AssertionError("a check family ran before the unconverged trace was refused")


class TestEarlyLscRefusal:
    def test_unconverged_trace_refused_before_any_family(self, monkeypatch):
        trace = make_trace(steps=6, eps=1e-300)
        assert not trace.converged
        for name in ("_lemma1", "lemma2_check", "_lemma3_row", "cauchy_check", "_lsc", "balance_check",
                     "reconstruction_check"):
            monkeypatch.setattr(diagnostics, name, fail_if_called)
        with pytest.raises(NotConverged, match="lsc check needs a converged trace"):
            run_verification(trace, DEFAULT_CHECKS)
        with pytest.raises(NotConverged):
            run_verification(trace, ("cauchy", "lemma3", "lsc"))

    def test_without_lsc_an_unconverged_trace_still_runs(self):
        trace = make_trace(steps=6, eps=1e-300)
        checks = tuple(c for c in DEFAULT_CHECKS if c != "lsc")
        reports = run_verification(trace, checks)
        assert CheckName.CAUCHY in {r.name for r in reports}

    def test_cli_exits_usage_without_running_the_sweep(self, monkeypatch, capsys):
        from daflow.cli import EXIT_USAGE, main

        monkeypatch.setattr(diagnostics, "_lemma3_row", fail_if_called)
        monkeypatch.setattr(diagnostics, "cauchy_check", fail_if_called)
        assert main(["verify", "--gen", "1,5,3", "--max-steps", "400"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lsc check needs a converged trace\n"
