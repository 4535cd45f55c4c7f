"""Certification checks: projection identities, comparison bounds, Cauchy
property, reconstruction, and reversibility of induced kernels."""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from itertools import takewhile
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daflow._fsio as _fsio
import daflow.diagnostics as diagnostics
import daflow.dist as dist
import daflow.metrics as metrics
from conftest import EDGE_FLOATS, gamma_weights
from daflow._numeric import stable_sum
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
    validate_instance,
    verification_to_json,
)
from daflow.dist import (
    Axis,
    JointDensity,
    MarginalDensity,
    compose,
    independence_target,
    make_target,
    random_positive_target,
)
from daflow.engine import DATrace, RetainPolicy, StopReason, TraceRecords, run
from daflow.errors import (
    DimensionMismatch,
    DistributionError,
    NotConverged,
    StateNotRetained,
    TargetNotPositive,
    ZeroConditional,
)
from daflow.metrics import ExtReal, _l1_rows, _rel_entropy_array, encode, relative_entropy, total_variation

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


# a 2x2 joint with every cell charged, and one whose top-right cell is empty
FULL22 = [[0.25, 0.25], [0.25, 0.25]]
HOLE22 = [[0.5, 0.0], [0.25, 0.25]]


class HandBuiltTrace(DATrace):
    """A trace whose `joints` returns arbitrary joints, which no run could
    keep: `states` maps each time to its joint's weights."""

    def joints(self, ts):
        return np.array([self.states[t] for t in ts])


def hand_built_trace(target, weights: dict[int, list]) -> DATrace:
    """A converged trace holding a state of each listed joint at its time,
    with zero columns of records up to the last of those times."""
    n = max(weights) + 1
    records = TraceRecords(np.zeros(n), np.zeros(n), np.zeros(n - 1), np.zeros(n - 1), np.zeros(n))
    states = {t: JointDensity(np.array(w)).w for t, w in weights.items()}
    return HandBuiltTrace(target, records, states, StopReason.CONVERGED)


def exported(report: LemmaReport) -> tuple:
    """The sides, residual or slack and verdict of a report in the verify JSON."""
    doc = json.loads(verification_to_json([report]))["reports"][0]
    return doc["lhs"], doc["rhs"], doc["residual_or_slack"], doc["pass"]


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

    def test_final_time_names_the_missing_successor(self):
        # the final record has no d_step; the successor's lookup raises first
        trace = make_trace(steps=6)
        with pytest.raises(StateNotRetained, match=f"^state at t={trace.last_t + 1} was not retained"):
            lemma1_check(trace, trace.last_t)


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

    def test_even_inequality_holds_vacuously_when_both_sides_infinite(self):
        # p_1 charges the cell that p_2 and p_3 leave empty
        trace = hand_built_trace(make_target(DIAG22), {1: FULL22, 2: HOLE22, 3: HOLE22})
        report = lemma2_check(trace, 1, 2)
        assert report.name is CheckName.LEMMA2_EVEN
        assert (report.lhs.value, report.rhs.value, report.residual_or_slack) == (math.inf, math.inf, 0.0)
        assert report.note == "both sides infinite; inequality holds vacuously" and report.passed
        assert exported(report) == ("inf", "inf", 0.0, True)


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

    def test_row_refuses_an_infinite_divergence_to_the_target(self):
        trace = make_trace(steps=6)
        d = {1: 0.5, 2: math.inf}
        with pytest.raises(DistributionError, match=r"^lemma3_check needs finite divergences to the target$"):
            list(diagnostics._lemma3_rows(trace, [1, 2], d))

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

    @pytest.mark.parametrize("times", [[3, 3, 8], [8, 5], [2, 6, 4]])
    def test_refuses_times_not_strictly_increasing(self, times):
        trace = make_trace(steps=10)
        message = f"cauchy_check needs strictly increasing times, got {times}"
        with pytest.raises(DistributionError, match=f"^{re.escape(message)}$"):
            cauchy_check(trace, times)


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

    def test_infinite_sides_compare_as_an_identity(self):
        # p_2 leaves empty a cell that p_1 charges: D(p_1 || p_2) is infinite,
        # and so is D(p_1 || target) against a target empty there too
        states = {1: FULL22, 2: HOLE22}
        one = lsc_gap(hand_built_trace(make_target(DIAG22), states), 1, 1)
        assert (one.lhs.value, one.residual_or_slack, one.tolerance) == (math.inf, math.inf, 1e-6)
        assert one.rhs.is_finite and one.note == "exactly one side infinite" and not one.passed
        assert exported(one) == ("inf", one.rhs.value, "inf", False)
        hole = make_target(JointDensity(np.array(HOLE22)), require_positive=False)
        both = lsc_gap(hand_built_trace(hole, states), 1, 1)
        assert (both.lhs.value, both.rhs.value, both.residual_or_slack) == (math.inf, math.inf, 0.0)
        assert both.note == "both sides infinite; identity holds vacuously" and both.passed
        assert exported(both) == ("inf", "inf", 0.0, True)


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

    @pytest.mark.parametrize(
        "nx, ny, seed_x, seed_y",
        [(5, 5, 8, 8), (4, 6, 1, 1), (6, 4, 2, 2), (1, 5, 3, 3), (5, 1, 4, 4), (40, 30, 5, 5), (3, 3, 11, 12)],
    )
    def test_equals_the_validated_per_row_body(self, nx, ny, seed_x, seed_y):
        # the last case pairs the kernels of two targets, so its residual is large
        cx = random_positive_target(nx, ny, seed=seed_x).cond_x_given_y
        cy = random_positive_target(nx, ny, seed=seed_y).cond_y_given_x
        got, residual = reconstruct_from_conditionals(cx, cy)
        want, joint_residual = reconstruction_reference(cx, cy)
        assert type(got) is JointDensity
        assert got.w.tobytes() == want.w.tobytes()
        assert repr(residual) == repr(marginal_residual_reference(cx, cy))
        # the two forms are equal in exact arithmetic; each rounded product,
        # quotient and total of the joint form is off by a few ulps of mass 1
        assert abs(residual - joint_residual) <= 8 * math.ulp(1.0) * max(1.0, residual)

    def test_sums_a_multiple_of_the_grid(self, monkeypatch):
        # a joint per reference row would sum about 2 * nx * nx * ny entries
        n, entries = 60, []
        cx = random_positive_target(n, n, seed=2).cond_x_given_y
        cy = random_positive_target(n, n, seed=3).cond_y_given_x
        for module in (diagnostics, dist, metrics):
            for name in ("stable_sum", "stable_row_sums"):
                if hasattr(module, name):
                    real = getattr(module, name)
                    monkeypatch.setattr(module, name, lambda a, real=real: entries.append(np.size(a)) or real(a))
        reconstruct_from_conditionals(cx, cy)
        assert 0 < sum(entries) <= 4 * n * n


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
    @pytest.mark.parametrize(
        "name, value, passed",
        [
            (CheckName.LEMMA1, 0.0, True),
            (CheckName.LEMMA1, 1e-10, True),
            (CheckName.LEMMA1, -1e-10, True),
            (CheckName.LEMMA1, math.nextafter(1e-10, math.inf), False),
            (CheckName.LEMMA1, -math.nextafter(1e-10, math.inf), False),
            (CheckName.LEMMA1, math.inf, False),
            (CheckName.LEMMA3, 5.0, True),
            (CheckName.LEMMA3, -1e-10, True),
            (CheckName.LEMMA3, -math.nextafter(1e-10, math.inf), False),
            (CheckName.LEMMA3, -math.inf, False),
        ],
    )
    def test_report_verdict_is_derived_at_the_tolerance(self, name, value, passed):
        report = LemmaReport(name, 1, 1, ExtReal.finite(1.0), ExtReal.finite(1.0), value, 1e-10)
        assert report.passed is passed
        assert report.passed == diagnostics._verdict(name, value, 1e-10)
        assert f"passed={passed}, tolerance=1e-10" in repr(report)

    def test_report_refuses_a_nan_residual(self):
        with pytest.raises(DistributionError, match=r"^report residual must not be NaN$"):
            LemmaReport(
                CheckName.LEMMA1, 0, None,
                ExtReal.finite(1.0), ExtReal.finite(1.0),
                math.nan, 1e-10,
            )

    def test_block_refuses_a_nan_residual(self):
        sides = np.array([1.0, 1.0])
        with pytest.raises(DistributionError, match=r"^report residual must not be NaN$"):
            diagnostics.ReportBlock(
                CheckName.LEMMA1, 1e-10, np.array([0, 1]), None,
                sides, sides, np.array([0.0, math.nan]), ("", ""),
            )

    @pytest.mark.parametrize(
        "lhs, rhs, value, note",
        [
            (math.inf, math.inf, 0.0, "both sides infinite; identity holds vacuously"),
            (math.inf, 1.0, math.inf, "exactly one side infinite"),
            (1.0, math.inf, math.inf, "exactly one side infinite"),
        ],
        ids=["both-infinite", "lhs-infinite", "rhs-infinite"],
    )
    def test_identity_value_of_infinite_sides(self, lhs, rhs, value, note):
        values, notes = diagnostics._identity_values(np.array([lhs]), np.array([rhs]))
        assert (values.tolist(), notes) == ([value], (note,))

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

    def test_table_rejects_a_repeated_check(self):
        trace = make_trace(steps=6)
        with pytest.raises(DistributionError, match=r"^checks \['lemma1'\] are listed more than once$"):
            diagnostics.verification_table(trace, ("lemma1", "lemma1"))

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
            0.0, 1e-10, "both sides infinite; identity holds vacuously",
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
                math.inf, 1e-10, "exactly one side infinite",
            ),
            LemmaReport(
                CheckName.LEMMA3, 1, 1,
                ExtReal.pos_infinity(), ExtReal.finite(0.5),
                -math.inf, 1e-10, "left side infinite with finite right side",
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


def reconstruction_reference(cx, cy):
    """The joint form of the reconstruction: each reference row's joint a
    validated `compose` of a validated marginal, compared with the first by
    `total_variation`."""

    def rebuilt(x0):
        u = cy.k[x0, :] / cx.k[x0, :]
        return compose(MarginalDensity(Axis.Y, u / stable_sum(u)), cx)

    first = rebuilt(0)
    residual = 0.0
    for x0 in range(1, cx.shape[0]):
        residual = max(residual, total_variation(rebuilt(x0), first))
    return first, residual


def marginal_residual_reference(cx, cy):
    """The largest L1 distance between the Y marginal implied by reference
    row 0 and that of each other row, each marginal normalized and each
    distance summed by one `math.fsum`."""

    def marginal(x0):
        u = cy.k[x0, :] / cx.k[x0, :]
        return u / math.fsum(u.tolist())

    first = marginal(0)
    return max((math.fsum(np.abs(marginal(x0) - first).tolist()) for x0 in range(1, cx.shape[0])), default=0.0)


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


class TestLemma1Records:
    @pytest.mark.parametrize("case", ["converged", *sorted(ROW_CASES)])
    def test_reads_the_recorded_step_divergence(self, case):
        # the recorded d_step is the pairwise divergence of the retained
        # joints, so lemma1 certifies the value the trace exports
        trace = converged_trace() if case == "converged" else ROW_CASES[case]()
        d = diagnostics._to_target(trace, trace.retained_times)
        ts = trace.retained_times[:-1]
        for t, report in zip(ts, diagnostics._lemma1_block(trace, ts, d).reports(), strict=True):
            p_t, p_next = trace.state_at(t).density, trace.state_at(t + 1).density
            d_step = trace.record_at(t).d_step
            assert repr(d_step.value) == repr(relative_entropy(p_t, p_next).value)
            assert report.t == t
            assert report.lhs == relative_entropy(p_t, trace.target.joint)
            rhs = d_step + relative_entropy(p_next, trace.target.joint)
            assert repr(report.rhs.value) == repr(rhs.value)


def lemma2_pair_reference(trace, t: int, n: int) -> LemmaReport:
    """The lemma2 report at (t, n), every divergence evaluated pair by pair."""
    p = {k: trace.state_at(k).density for k in (t, t + 1, t + n - 1, t + n)}
    lhs = relative_entropy(p[t], p[t + n])
    if n % 2 == 0:
        rhs = relative_entropy(p[t], p[t + n - 1])
        return LemmaReport(
            CheckName.LEMMA2_EVEN, t, n, lhs, rhs, rhs.value - lhs.value, diagnostics.INEQUALITY_TOL
        )
    rhs = relative_entropy(p[t], p[t + 1]) + relative_entropy(p[t + 1], p[t + n])
    values, (note,) = diagnostics._identity_values(np.array([lhs.value]), np.array([rhs.value]))
    return LemmaReport(CheckName.LEMMA2_ODD, t, n, lhs, rhs, values.tolist()[0], diagnostics.IDENTITY_TOL, note)


class TestLemma2Records:
    @pytest.mark.parametrize("case", ["converged", *sorted(ROW_CASES)])
    def test_odd_identity_reads_the_recorded_step_divergence(self, case, monkeypatch):
        trace = converged_trace() if case == "converged" else ROW_CASES[case]()
        calls = []

        def spy(p, qs, *args):
            calls.append((p.copy(), qs.copy()))
            return _rel_entropy_array(p, qs, *args)

        monkeypatch.setattr(diagnostics, "_rel_entropy_array", spy)
        reports = run_verification(trace, ("lemma2",))
        # D(p_t || p_(t+n)) and one neighbour divergence per instance, in one
        # paired evaluation; the odd identity's D(p_t || p_(t+1)) comes from
        # the trace's records
        expected = []
        for r in reports:
            t, n = r.t, r.n
            expected += [(t, t + n), (t, t + n - 1) if n % 2 == 0 else (t + 1, t + n)]
        w = {t: trace.state_at(t).density.w for pair in expected for t in pair}
        assert len(calls) == 1
        for side, got in enumerate(calls[0]):
            npt.assert_array_equal(got, [w[pair[side]] for pair in expected])
        monkeypatch.undo()
        assert_same_reports(reports, [lemma2_pair_reference(trace, r.t, r.n) for r in reports])


class TestInstanceTimes:
    @pytest.mark.parametrize("check", ["lemma1", "lemma2", "lemma3", "lsc"])
    def test_validate_instance_names_the_states_the_check_reads(self, check, monkeypatch):
        trace = converged_trace()
        run_check = {
            "lemma1": lambda t, n: lemma1_check(trace, t),
            "lemma2": lambda t, n: lemma2_check(trace, t, n),
            "lemma3": lambda t, n: lemma3_check(trace, t, n),
            "lsc": lambda t, n: lsc_gap(trace, t, n),
        }[check]
        read = []
        joints = DATrace.joints

        def spy(self, ts):
            read.extend(ts)
            return joints(self, ts)

        monkeypatch.setattr(DATrace, "joints", spy)
        checked = 0
        for t in range(5):
            for n in [None] if check == "lemma1" else range(6):
                try:
                    times = validate_instance(check, t, n)
                except DistributionError:
                    continue
                read.clear()
                run_check(t, n)
                assert sorted(set(read)) == times, (t, n)
                checked += 1
        assert checked >= 5


def block_times(monkeypatch, rows: int, cells: int) -> None:
    """Set `_BLOCK_VALUES` so that a block of `_pair_tiles` holds `rows`
    times of `cells` cells each."""
    monkeypatch.setattr(diagnostics, "_BLOCK_VALUES", max(rows * rows, 2 * rows * cells))


def banded_trace(n: int, steps: int) -> DATrace:
    """A run of `steps` half-steps from uniform to a slowly mixing banded
    n x n target, retaining every state."""
    i = np.arange(n)
    w = np.exp(-2.0 * np.abs(i[:, None] - i[None, :]))
    target = make_target(JointDensity(w / w.sum()))
    return run(JointDensity(np.full((n, n), 1.0 / n**2)), target, max_half_steps=steps, eps=1e-300)


def positions_trace(m: int):
    """A trace stand-in on a one-cell grid whose time t has the weight array
    [t], for t in 0..m-1: enough for `_pair_tiles` to stack and gather."""
    weights = np.arange(m, dtype=np.float64)[:, None]
    return SimpleNamespace(target=SimpleNamespace(shape=(1, 1)), joints=lambda ts: weights[ts])


class TestPairRows:
    @pytest.mark.parametrize("m", [2, 3, 7, 12])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 100])
    def test_tiles_cover_every_pair_once(self, m, rows, monkeypatch):
        block_times(monkeypatch, rows, 1)
        seen = []
        tiles = []
        # the kernel sees the gathered weights, so it returns the pairs' positions
        chunks = diagnostics._pair_tiles(positions_trace(m), list(range(m)), lambda p, q: p[:, 0] * m + q[:, 0])
        for a0, a, b, values in chunks:
            assert values.dtype == np.float64 and len(a) == len(b) == len(values) >= 1
            npt.assert_array_equal(values, a * m + b)
            # a chunk lies in one row block and one block of columns, its
            # pairs in row-major order, at most as many as a block has times
            assert a0 % rows == 0 and set((a // rows * rows).tolist()) == {a0}
            assert len(set((b // rows).tolist())) == 1
            assert len(a) <= rows
            assert list(zip(a.tolist(), b.tolist())) == sorted(zip(a.tolist(), b.tolist()))
            tiles.append((a0, int(b[0]) // rows))
            seen += zip(a.tolist(), b.tolist())
        # every pair a < b once; row blocks in order, each block's columns in order
        assert sorted(seen) == [(a, b) for a in range(m) for b in range(a + 1, m)]
        assert len(set(seen)) == len(seen)
        assert tiles == sorted(tiles)

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_rows_equal_pairwise_values_exactly(self, case, monkeypatch):
        trace = ROW_CASES[case]()
        # blocks of three times, so tiles split both the rows and the columns
        block_times(monkeypatch, 3, trace.target.joint.w.size)
        times = trace.retained_times
        infinite = 0
        # listed in reverse too, so each t meets the earlier times:
        # D(p_t || p_k) can be infinite only for k < t
        for listed in (times, times[::-1]):
            densities = [trace.state_at(t).density for t in listed]
            d_chunks = list(diagnostics._pair_tiles(trace, listed, _rel_entropy_array))
            v_chunks = list(diagnostics._pair_tiles(trace, listed, _l1_rows))
            assert sum(len(c[1]) for c in d_chunks) == len(listed) * (len(listed) - 1) // 2
            for (_, a, b, d_values), (_, a_v, b_v, v_values) in zip(d_chunks, v_chunks, strict=True):
                npt.assert_array_equal(a, a_v)
                npt.assert_array_equal(b, b_v)
                for i, k, d, v in zip(a.tolist(), b.tolist(), map(ExtReal, d_values.tolist()), v_values.tolist()):
                    p, q = densities[i], densities[k]
                    assert d == relative_entropy(p, q)
                    assert d.value == reference_divergence(p.w, q.w)
                    assert v == total_variation(p, q)
                    assert v == math.fsum(np.abs(p.w - q.w).ravel().tolist())
                    infinite += not d.is_finite
        if case == "degenerate":
            # p_1 lives on the starting column, so D(p_t || p_1) = +inf for t >= 2
            assert infinite > 0

    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_cauchy_matrix_equals_pairwise_distances(self, case, monkeypatch):
        trace = ROW_CASES[case]()
        # blocks of two times, so tiles split both the rows and the columns
        block_times(monkeypatch, 2, trace.target.joint.w.size)
        times = trace.retained_times
        v = cauchy_matrix(trace, times)
        densities = [trace.state_at(t).density for t in times]
        for a, p in enumerate(densities):
            for b, q in enumerate(densities):
                assert v[a, b] == (0.0 if a == b else total_variation(p, q))

    def test_cauchy_matrix_of_fewer_than_two_times(self):
        trace = make_trace(steps=4)
        assert cauchy_matrix(trace, []).shape == (0, 0)
        npt.assert_array_equal(cauchy_matrix(trace, [2]), [[0.0]])

    def test_sweep_allocates_one_block_of_rows(self):
        n, steps = 60, 299
        trace = banded_trace(n, steps)
        times = trace.retained_times
        assert len(times) == steps + 1
        # the divergences to the target exist before the sweep
        d = diagnostics._to_target(trace, times)
        listed = [1, *times[2:]]
        stacked = (len(listed) - 1) * n * n * 8  # what stacking every later joint would take
        block = diagnostics._BLOCK_VALUES * 8
        # the first row block's times, each against every later listed time
        rows = min(diagnostics._BLOCK_VALUES // (2 * n * n), math.isqrt(diagnostics._BLOCK_VALUES))
        first_block_pairs = sum(len(listed) - 1 - a for a in range(rows))
        for sweep, pairs in (
            (lambda: next(diagnostics._lemma3_rows(trace, listed, d)), len),
            (
                lambda: list(takewhile(lambda c: c[0] == 0, diagnostics._pair_tiles(trace, listed, _l1_rows))),
                lambda chunks: sum(len(c[3]) for c in chunks),
            ),
        ):
            tracemalloc.start()
            try:
                result = sweep()
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert pairs(result) == first_block_pairs
            # beyond what it returns, a sweep holds one tile's stacks of
            # times, the pairs it gathers from them and a few temporaries
            assert peak - current <= 4 * block
            assert peak - current < stacked / 4

    @pytest.mark.parametrize("sweep", ["lemma3", "cauchy"])
    def test_sweeps_look_up_each_state_a_bounded_number_of_times(self, sweep, monkeypatch):
        trace = make_trace(1, 5, seed=3, steps=60)
        times = trace.retained_times
        assert len(times) == 61
        read = []
        joints = DATrace.joints

        def spy(self, ts):
            read.extend(ts)
            return joints(self, ts)

        monkeypatch.setattr(DATrace, "joints", spy)
        run_verification(trace, (sweep,))
        # lemma3 composes each joint for its divergence to the target and for
        # its row, cauchy for its row only; one per pair would be about
        # T^2 / 2 (1,770 here)
        per_time = 2 if sweep == "lemma3" else 1
        assert sorted(read) == sorted([t for t in times if t >= 1] * per_time)

    def test_divergence_to_target_once_per_time(self, monkeypatch):
        trace = converged_trace()
        pi = trace.target.joint.w
        seen = []

        def counted(p, qs, *args):
            if (qs == pi).all():
                seen.extend(p.copy())
            return _rel_entropy_array(p, qs, *args)

        monkeypatch.setattr(diagnostics, "_rel_entropy_array", counted)
        reports = run_verification(trace, ("lemma1", "lemma3", "lsc"))
        assert {r.name for r in reports} == {CheckName.LEMMA1, CheckName.LEMMA3, CheckName.LSC}
        # each retained time's joint, once, in the order of the times
        expected = [trace.state_at(t).density.w for t in trace.retained_times]
        assert len(seen) == len(expected)
        npt.assert_array_equal(seen, expected)


class TestStackSource:
    """Every check reads its joints from `DATrace.joints`, which composes and
    validates them on each call and keeps none."""

    @pytest.mark.parametrize("check", ["lemma1", "lemma2", "lemma3", "cauchy", "lsc"])
    @pytest.mark.parametrize(
        "entry, message",
        [
            (math.nan, "joint density contains NaN or infinite entries"),
            (-0.25, "joint density contains negative mass"),
        ],
        ids=["nan", "negative"],
    )
    def test_a_corrupt_marginal_is_refused_as_state_at_refuses_it(self, check, entry, message):
        trace = converged_trace()
        # every family reads t=1: lemma1's first pair, lemma2's grid, the
        # first row of lemma3 and cauchy, and lsc's anchor
        trace.states._rows[1, 1] = entry  # the row of t=1: retain all keeps every time
        for read in (lambda: trace.state_at(1), lambda: run_verification(trace, (check,))):
            with pytest.raises(DistributionError, match=f"^{re.escape(message)}$"):
                read()

    def test_sweeps_hold_no_joint(self):
        n = 60
        trace = banded_trace(n, 299)
        assert len(trace.retained_times) == 300
        # every tenth iterate: full sweeps over all 300 take about ten seconds
        listed = trace.retained_times[1::10]
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            cauchy_check(trace, listed)
            for _ in diagnostics._lemma3_rows(trace, listed, diagnostics._to_target(trace, listed)):
                pass
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 30 joints the sweeps read take 864 kB; not one of them is held
        assert after - before < n * n * 8


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
    return LemmaReport(
        CheckName.CAUCHY, worst_pair[0], worst_pair[1] - worst_pair[0],
        ExtReal.finite(worst_sides[0]), ExtReal.finite(worst_sides[1]), worst,
        diagnostics.INEQUALITY_TOL,
        f"tightest pair (t={worst_pair[0]}, k={worst_pair[1]}) of {len(times)} times",
    )


def stub_trace(d: list[float]):
    """A trace with retained times 1..len(d) whose divergences to the target
    are `d`: what cauchy_check reads besides the distance matrix, the
    divergences as a column, and what the reference reads, as records."""
    records = {t: SimpleNamespace(d_to_target=ExtReal(x)) for t, x in enumerate(d, start=1)}
    column = np.array([math.nan, *d])
    return SimpleNamespace(
        retained_times=sorted(records), record_at=records.__getitem__, column=lambda name, ts: column[ts]
    )


def rows_of(v: np.ndarray):
    """A stand-in for `diagnostics._pair_tiles` that runs it over the
    positions of the listed times, with v[a, b] as the kernel's value on the
    pair of positions (a, b); its tiles follow `_BLOCK_VALUES` on one-cell
    weights."""
    tiles, positions = diagnostics._pair_tiles, positions_trace(len(v))

    def stand_in(trace, times, kernel):
        return tiles(positions, list(range(len(times))), lambda p, q: v[p[:, 0].astype(int), q[:, 0].astype(int)])

    return stand_in


def assert_same_report(got: LemmaReport, want: LemmaReport) -> None:
    assert got == want
    assert json.dumps(report_to_json_dict(got)) == json.dumps(report_to_json_dict(want))


class TestCauchyScan:
    @pytest.mark.parametrize("rows", [2, None])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_real_traces(self, case, rows, monkeypatch):
        trace = ROW_CASES[case]()
        if len([t for t in trace.retained_times if t >= 1]) < 2:
            pytest.skip("fewer than two iterate times")
        if rows:
            block_times(monkeypatch, rows, trace.target.joint.w.size)
        assert_same_report(cauchy_check(trace), cauchy_loop_reference(trace))
        times = [t for t in trace.retained_times if t >= 1][::2]
        if len(times) >= 2:
            assert_same_report(cauchy_check(trace, times), cauchy_loop_reference(trace, times))

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    @pytest.mark.parametrize("seed", range(12))
    def test_tied_slacks(self, seed, rows, monkeypatch):
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
        if rows:
            # blocks of one to three times, so ties straddle tile boundaries
            block_times(monkeypatch, rows, 1)
        monkeypatch.setattr(diagnostics, "_pair_tiles", rows_of(v))
        trace = stub_trace(d)
        assert_same_report(cauchy_check(trace), cauchy_loop_reference(trace))

    def test_tie_across_tiles_keeps_the_row_major_first(self, monkeypatch):
        # blocks of two times: the tile of rows {0, 1} and columns {2, 3}
        # yields (1, 2) before the tile of columns {4, 5} yields (0, 4),
        # though (0, 4) comes first in row-major order
        v = np.full((6, 6), 0.5)
        v[1, 2] = v[2, 1] = v[0, 4] = v[4, 0] = 1.0
        block_times(monkeypatch, 2, 1)
        monkeypatch.setattr(diagnostics, "_pair_tiles", rows_of(v))
        trace = stub_trace([0.0] * 6)
        report = cauchy_check(trace)
        assert_same_report(report, cauchy_loop_reference(trace))
        assert (report.t, report.n, report.residual_or_slack) == (1, 4, -0.5)

    def test_all_pairs_infinite_keep_the_default_pair(self, monkeypatch):
        monkeypatch.setattr(diagnostics, "_pair_tiles", rows_of(np.zeros((3, 3))))
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
        monkeypatch.setattr(diagnostics, "_pair_tiles", rows_of(v))
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

    def test_real_trace_scan_holds_no_distance_matrix(self):
        trace = make_trace(1, 5, seed=3, steps=400)
        times = [t for t in trace.retained_times if t >= 1]
        assert len(times) == 400
        tracemalloc.start()
        try:
            report = cauchy_check(trace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_report(report, cauchy_loop_reference(trace))
        # one T x T matrix of distances takes T^2 * 8 bytes (1.2 MiB here)
        assert peak < len(times) ** 2 * 8 / 4


def fail_if_called(*args, **kwargs):
    raise AssertionError("a check family ran before the unconverged trace was refused")


class TestEarlyLscRefusal:
    def test_unconverged_trace_refused_before_any_family(self, monkeypatch):
        trace = make_trace(steps=6, eps=1e-300)
        assert not trace.converged
        for name in ("_to_target", "_lemma1_block", "_lemma2_reports", "_lemma3_rows", "cauchy_check", "_lsc",
                     "balance_check", "reconstruction_check"):
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

        monkeypatch.setattr(diagnostics, "_lemma3_rows", fail_if_called)
        monkeypatch.setattr(diagnostics, "cauchy_check", fail_if_called)
        assert main(["verify", "--gen", "1,5,3", "--max-steps", "400"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lsc check needs a converged trace\n"


def summary_reference(reports) -> dict:
    """The summary as a loop over the reports computes it: the largest
    absolute residual and the smallest slack, kept by ``max`` and ``min``."""
    worst = {}
    for r in reports:
        key = r.name.value
        if diagnostics._CHECK_KIND[r.name] == "identity":
            worst[key] = max(worst.get(key, 0.0), abs(r.residual_or_slack))
        else:
            worst[key] = min(worst.get(key, math.inf), r.residual_or_slack)
    return {
        "checks_run": len(reports),
        "passes": sum(r.passed for r in reports),
        "failures": sum(not r.passed for r in reports),
        "worst_residual_by_lemma": {k: encode(v) for k, v in worst.items()},
    }


def lemma3_pair_reference(trace, t: int, k: int, d) -> LemmaReport:
    """The lemma3 report on one pair, built from scalars one pair at a time."""
    lhs = relative_entropy(trace.state_at(t).density, trace.state_at(k).density)
    rhs = ExtReal.finite(d[t] - d[k])
    if not lhs.is_finite:
        return LemmaReport(
            CheckName.LEMMA3, t, k - t, lhs, rhs, -math.inf, diagnostics.INEQUALITY_TOL,
            "left side infinite with finite right side",
        )
    return LemmaReport(
        CheckName.LEMMA3, t, k - t, lhs, rhs, rhs.value - lhs.value, diagnostics.INEQUALITY_TOL
    )


def assert_same_reports(got: list[LemmaReport], want: list[LemmaReport]) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_same_report(g, w)


class TestReportBlocks:
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_blocks_materialize_the_per_pair_reports(self, case, monkeypatch):
        trace = ROW_CASES[case]()
        # blocks of three times, so tiles split both the rows and the columns
        block_times(monkeypatch, 3, trace.target.joint.w.size)
        times = trace.retained_times
        d = diagnostics._to_target(trace, times)
        infinite = 0
        # listed in reverse too, so each t meets the earlier times:
        # D(p_t || p_k) can be infinite only for k < t
        for listed in (times, times[::-1]):
            m = len(listed)
            blocks = list(diagnostics._lemma3_rows(trace, listed, d))
            # one block per row block of three times, in row-major order
            assert len(blocks) == -(-(m - 1) // 3)
            for a0, block in zip(range(0, m, 3), blocks):
                want = [
                    lemma3_pair_reference(trace, listed[a], listed[b], d)
                    for a in range(a0, min(a0 + 3, m)) for b in range(a + 1, m)
                ]
                assert_same_reports(block.reports(), want)
                infinite += sum(not r.lhs.is_finite for r in want)
        if case == "degenerate":
            # p_1 lives on the starting column, so D(p_t || p_1) = +inf for t >= 2
            assert infinite > 0
        iterates = [t for t in times if t >= 1]
        if len(iterates) < 2:
            with pytest.raises(StateNotRetained):
                run_verification(trace, ("lemma3",))
            return
        want = [lemma3_pair_reference(trace, t, k, d) for t in iterates for k in iterates if k > t]
        got = run_verification(trace, ("lemma3",))
        assert_same_reports(got, want)
        assert_same_reports([lemma3_check(trace, r.t, r.n) for r in want], want)
        blocks = list(diagnostics.verification_table(trace, ("lemma3",)))
        assert len(blocks) == -(-(len(iterates) - 1) // 3)
        summary = {}
        assert list(diagnostics._summarized(blocks, summary)) == blocks
        assert json.dumps(summary) == json.dumps(summary_reference(want))

    def test_summary_keeps_the_first_tied_worst_value(self):
        def report(name, value, tolerance=1e-10):
            return LemmaReport(name, 1, 1, ExtReal(0.0), ExtReal(0.0), value, tolerance)

        lemma3, cauchy, lemma1 = CheckName.LEMMA3, CheckName.CAUCHY, CheckName.LEMMA1
        cases = [
            ([report(lemma3, 0.0), report(lemma3, -0.0)], 0.0),
            ([report(lemma3, -0.0), report(lemma3, 0.0)], -0.0),
            # a different tolerance starts a new block
            ([report(lemma3, 0.0), report(lemma3, -0.0, 1e-6)], 0.0),
            ([report(lemma3, -0.0, 1e-6), report(lemma3, 0.0)], -0.0),
            ([report(lemma3, 1.0), report(cauchy, 0.0), report(lemma3, -0.0), report(lemma3, 0.0)], -0.0),
            ([report(lemma3, math.inf), report(lemma3, 2.0, 1e-6), report(lemma3, -math.inf)], "-inf"),
        ]
        for reports, lemma3_worst in cases:
            summary = summarize(reports)
            assert json.dumps(summary) == json.dumps(summary_reference(reports))
            assert json.dumps(summary["worst_residual_by_lemma"]["Lemma3"]) == json.dumps(lemma3_worst)
        identity = [report(lemma1, -0.0), report(lemma1, 0.0), report(lemma1, -1e-12)]
        assert json.dumps(summarize(identity)) == json.dumps(summary_reference(identity))

    def test_empty_report_list(self):
        text = verification_to_json([])
        assert text == json.dumps({"reports": [], "summary": summary_reference([])}, indent=1) + "\n"


class TestOnePass:
    """`verification_table` refuses at the call and evaluates each family
    as its blocks are read; `verification_chunks` writes each block as it
    arrives and holds none."""

    def test_the_table_returns_before_the_pair_sweep_starts(self, monkeypatch):
        trace = make_trace(steps=6)
        entered = []

        def tiles(*args):
            entered.append(args)
            yield from ()

        monkeypatch.setattr(diagnostics, "_pair_tiles", tiles)
        blocks = diagnostics.verification_table(trace, ("lemma3",))
        assert entered == []
        assert list(blocks) == [] and len(entered) == 1

    def test_the_target_table_is_the_trace_table_of_the_target_families(self):
        trace = make_trace(steps=6)
        checks = ("reconstruction", "balance")
        want = list(diagnostics.verification_chunks(diagnostics.verification_table(trace, checks), {}))
        assert list(diagnostics.verification_chunks(diagnostics.target_table(trace.target, checks), {})) == want
        with pytest.raises(DistributionError, match=r"\['lemma1'\] read the iterates"):
            diagnostics.target_table(trace.target, ("balance", "lemma1"))
        with pytest.raises(DistributionError, match="listed more than once"):
            diagnostics.target_table(trace.target, ("balance", "balance"))

    def test_lemma3_json_holds_one_row_block_at_a_time(self, monkeypatch):
        target = random_positive_target(1, 5, seed=3)
        trace = run(random_positive_target(1, 5, seed=4).joint, target, max_half_steps=300, eps=1e-300)
        iterates = [t for t in trace.retained_times if t >= 1]
        assert len(iterates) == 300
        block_times(monkeypatch, 3, target.joint.w.size)
        tracemalloc.start()
        try:
            for _ in diagnostics.verification_chunks(diagnostics.verification_table(trace, ("lemma3",)), {}):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # all 44,850 reports staged as blocks take about 2.5 MB of columns
        # (a sweep that builds them all before writing peaks at 3.0 MB);
        # one row block of at most 897 reports and its text take about 0.9 MB
        assert peak < 1.25e6


NOTES = (
    "", "left side infinite with finite right side", 'a "quoted" note', "back\\slash and /",
    "naïve π ≤ ∞", "tab\tnewline\n and \x00", "100% of %s",
)


def report_floats(allow_negative_infinity: bool) -> st.SearchStrategy[float]:
    return st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False)).filter(
        lambda x: allow_negative_infinity or x != -math.inf
    )


@st.composite
def report_lists(draw) -> list[LemmaReport]:
    """Runs of reports that share a name, a tolerance and whether n is None,
    so that gathered blocks hold several rows."""
    reports = []
    for _ in range(draw(st.integers(0, 5))):
        name = draw(st.sampled_from(list(CheckName)))
        tolerance = draw(st.sampled_from([1e-10, 1e-6, 0.0, 2.5, math.inf]))
        no_n = draw(st.booleans())
        for _ in range(draw(st.integers(1, 4))):
            reports.append(LemmaReport(
                name,
                draw(st.integers(0, 10**6)),
                None if no_n else draw(st.integers(-3, 10**6)),
                ExtReal(draw(report_floats(False))),
                ExtReal(draw(report_floats(False))),
                draw(report_floats(True)),
                tolerance,
                draw(st.one_of(st.sampled_from(NOTES), st.text(max_size=8))),
            ))
    return reports


class TestBlockEncoder:
    @settings(max_examples=150, deadline=None)
    @given(reports=report_lists())
    def test_text_is_json_dumps_of_the_report_dicts(self, reports):
        summary = summarize(reports)
        assert json.dumps(summary) == json.dumps(summary_reference(reports))
        doc = {"reports": [report_to_json_dict(r) for r in reports], "summary": summary}
        expected = json.dumps(doc, indent=1) + "\n"
        assert verification_to_json(reports, summary) == expected
        assert verification_to_json(reports) == expected
        blocks = diagnostics._gather(reports)
        assert "".join(diagnostics.verification_chunks(blocks, summary)) == expected
        # an empty summary is folded from the blocks as they pass
        assert "".join(diagnostics.verification_chunks(iter(blocks), {})) == expected
        assert_same_reports([r for block in blocks for r in block.reports()], reports)

    @pytest.mark.parametrize("per_chunk", [1, 2, 7])
    def test_large_blocks_are_written_in_bounded_chunks(self, per_chunk, monkeypatch):
        trace = degenerate_trace(5, 4, (2, 3))
        blocks = list(diagnostics.verification_table(trace, ("lemma1", "lemma3", "balance")))
        reports = [r for block in blocks for r in block.reports()]
        summary = summarize(reports)
        doc = {"reports": [report_to_json_dict(r) for r in reports], "summary": summary}
        monkeypatch.setattr(_fsio, "TABLE_ROWS", per_chunk)
        chunks = list(diagnostics.verification_chunks(iter(blocks), {}))
        assert "".join(chunks) == json.dumps(doc, indent=1) + "\n"
        # every chunk but the opening and the summary holds at most per_chunk reports
        assert max(chunk.count('"name":') for chunk in chunks[1:-1]) == per_chunk
        assert chunks[-1].count('"name":') == 0
