"""Recursion parity, convergence runs, retention, and trace export."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EDGE_FLOATS, gamma_weights
from daflow.dist import (
    Axis,
    Direction,
    JointDensity,
    MarginalDensity,
    conditional,
    independence_target,
    make_target,
    random_positive_target,
)
import daflow._fsio as _fsio
import daflow.dist as dist
import daflow.engine as engine
from daflow.engine import (
    CSV_HEADER,
    DAState,
    DATrace,
    RetainPolicy,
    StopReason,
    TraceRecord,
    TraceRecords,
    UpdateKind,
    da_half_step,
    fixed_point_residual,
    half_step_with_drift,
    initial_state,
    run,
    trace_to_csv,
    trace_to_json,
)
from daflow.errors import (
    DimensionMismatch,
    DistributionError,
    StateNotRetained,
    TargetNotPositive,
)
from daflow.metrics import (
    _rel_entropy_raw,
    encode,
    marginal_relative_entropy,
    marginal_total_variation,
    relative_entropy,
    total_variation,
)

DIAG22 = JointDensity(np.array([[0.4, 0.1], [0.1, 0.4]]))


def brute_force_iterates(w0: np.ndarray, wpi: np.ndarray, n: int) -> list[np.ndarray]:
    """Plain nested-loop reference recursion, no package code on the hot path."""
    nx, ny = wpi.shape
    out = [w0.copy()]
    w = w0.copy()
    for t in range(n):
        new = np.zeros_like(w)
        if t % 2 == 0:
            py = [sum(w[i][j] for i in range(nx)) for j in range(ny)]
            piy = [sum(wpi[i][j] for i in range(nx)) for j in range(ny)]
            for i in range(nx):
                for j in range(ny):
                    new[i][j] = py[j] * (wpi[i][j] / piy[j])
        else:
            px = [sum(w[i][j] for j in range(ny)) for i in range(nx)]
            pix = [sum(wpi[i][j] for j in range(ny)) for i in range(nx)]
            for i in range(nx):
                for j in range(ny):
                    new[i][j] = px[i] * (wpi[i][j] / pix[i])
        w = new
        out.append(w.copy())
    return out


def noisy_banded_target(n: int, beta: float, seed: int):
    """A slowly mixing target, w[i, j] proportional to
    exp(-beta |i - j| + 0.1 z[i, j]) with z seeded standard normal."""
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    w = np.exp(-beta * np.abs(i[:, None] - i[None, :]) + 0.1 * rng.standard_normal((n, n)))
    return make_target(JointDensity(w / w.sum()))


def degenerate(nx: int, ny: int, i: int, j: int) -> JointDensity:
    w = np.zeros((nx, ny))
    w[i, j] = 1.0
    return JointDensity(w)


def brute_force_divergence(p: np.ndarray, q: np.ndarray) -> float:
    return sum(
        p[i][j] * math.log(p[i][j] / q[i][j])
        for i in range(p.shape[0])
        for j in range(p.shape[1])
        if p[i][j] > 0.0
    )


class TestStateBookkeeping:
    def test_update_kind_follows_the_parity_of_t(self):
        assert initial_state(DIAG22).last_update is UpdateKind.NONE
        assert DAState(0, DIAG22).last_update is UpdateKind.NONE
        for t in (1, 3, 101):
            assert DAState(t, DIAG22).last_update is UpdateKind.REFRESH_X
        for t in (2, 4, 100):
            assert DAState(t, DIAG22).last_update is UpdateKind.REFRESH_Y
        assert repr(DAState(1, DIAG22)).endswith(", last_update=<UpdateKind.REFRESH_X: 'RefreshX'>)")

    def test_negative_time_rejected(self):
        with pytest.raises(DistributionError, match=r"^state time must be nonnegative, got -1$"):
            DAState(-1, DIAG22)


class TestHalfStep:
    def test_target_is_a_fixed_point(self):
        target = random_positive_target(4, 3, seed=21)
        s = initial_state(target.joint)
        for _ in range(4):
            s = da_half_step(s, target)
            npt.assert_allclose(s.density.w, target.joint.w, atol=1e-15, rtol=0)

    def test_first_update_refreshes_x_given_y(self):
        target = random_positive_target(3, 3, seed=5)
        p0 = JointDensity(gamma_weights(3, 3, seed=6))
        s1 = da_half_step(initial_state(p0), target)
        assert s1.t == 1
        assert s1.last_update is UpdateKind.REFRESH_X
        # the fresh conditional is the target's; the Y marginal is untouched
        k1 = conditional(s1.density, Direction.X_GIVEN_Y)
        npt.assert_allclose(k1.k, target.cond_x_given_y.k, atol=1e-10)
        npt.assert_allclose(s1.density.w.sum(axis=0), p0.w.sum(axis=0), atol=1e-14)

    def test_second_update_refreshes_y_given_x(self):
        target = random_positive_target(3, 3, seed=5)
        p0 = JointDensity(gamma_weights(3, 3, seed=6))
        s2 = da_half_step(da_half_step(initial_state(p0), target), target)
        assert s2.t == 2
        assert s2.last_update is UpdateKind.REFRESH_Y
        k2 = conditional(s2.density, Direction.Y_GIVEN_X)
        npt.assert_allclose(k2.k, target.cond_y_given_x.k, atol=1e-10)

    def test_uniform_start_on_balanced_target_lands_in_one_step(self):
        # Y marginal of the uniform start already equals the target's, so a
        # single X refresh reproduces the target exactly
        uniform = JointDensity(np.full((2, 2), 0.25))
        target = make_target(DIAG22)
        s1 = da_half_step(initial_state(uniform), target)
        expected = np.array([[0.5 * 0.8, 0.5 * 0.2], [0.5 * 0.2, 0.5 * 0.8]])
        npt.assert_allclose(s1.density.w, expected, atol=1e-15)
        npt.assert_allclose(s1.density.w, target.joint.w, atol=1e-15)

    def test_independence_target_converges_in_two_half_steps(self):
        px = MarginalDensity(Axis.X, np.array([0.2, 0.3, 0.5]))
        py = MarginalDensity(Axis.Y, np.array([0.6, 0.4]))
        target = independence_target(px, py)
        s = initial_state(JointDensity(gamma_weights(3, 2, seed=40)))
        s = da_half_step(da_half_step(s, target), target)
        assert float(np.abs(s.density.w - target.joint.w).sum()) <= 1e-12

    def test_dimension_mismatch(self):
        target = random_positive_target(3, 3, seed=1)
        with pytest.raises(DimensionMismatch):
            da_half_step(initial_state(DIAG22), target)

    def test_nonpositive_target_refused(self):
        target = make_target(
            JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]])), require_positive=False
        )
        with pytest.raises(TargetNotPositive):
            da_half_step(initial_state(JointDensity(np.full((2, 2), 0.25))), target)

    def test_matches_brute_force_recursion(self):
        for seed in (3, 14, 15):
            target = random_positive_target(4, 5, seed=seed)
            w0 = gamma_weights(4, 5, seed=seed + 100)
            expected = brute_force_iterates(w0, target.joint.w.copy(), 10)
            s = initial_state(JointDensity(w0))
            for t in range(1, 11):
                s = da_half_step(s, target)
                npt.assert_allclose(s.density.w, expected[t], atol=1e-14, rtol=0)


class TestRun:
    def test_start_at_target_converges_immediately(self):
        target = make_target(DIAG22)
        trace = run(DIAG22, target, max_half_steps=100, eps=1e-10)
        assert trace.stop_reason is StopReason.CONVERGED
        assert trace.last_t == 0
        assert len(trace.records) == 1
        final = trace.records[0]
        assert final.d_step is None and final.lemma1_residual is None
        assert final.d_to_target.value == 0.0

    def test_descent_matches_brute_force_divergences(self):
        target = make_target(DIAG22)
        p0 = JointDensity(np.array([[0.7, 0.1], [0.1, 0.1]]))
        trace = run(p0, target, max_half_steps=200, eps=1e-10)
        assert trace.stop_reason is StopReason.CONVERGED
        iterates = brute_force_iterates(p0.w.copy(), DIAG22.w.copy(), trace.last_t)
        ds = [brute_force_divergence(w, DIAG22.w) for w in iterates]
        for r in trace.records:
            assert r.d_to_target.value == pytest.approx(ds[r.t], abs=1e-12)
        # strict decrease until convergence
        for a, b in zip(ds, ds[1:]):
            assert b < a

    def test_monotone_descent_on_random_targets(self):
        for seed in range(8):
            target = random_positive_target(5, 4, seed=seed)
            p0 = JointDensity(gamma_weights(5, 4, seed=seed + 500))
            trace = run(p0, target, max_half_steps=300, eps=1e-12)
            values = [r.d_to_target.value for r in trace.records]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12

    def test_infinite_initial_divergence_stops_immediately(self):
        target = make_target(
            JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]])), require_positive=False
        )
        p0 = JointDensity(np.full((2, 2), 0.25))
        trace = run(p0, target, max_half_steps=100, eps=1e-10)
        assert trace.stop_reason is StopReason.INFINITE_INITIAL_DIVERGENCE
        assert len(trace.records) == 1
        r = trace.records[0]
        assert not r.d_to_target.is_finite
        assert not math.isnan(r.d_to_target.value)
        assert math.isfinite(r.tv_to_target)

    def test_nonpositive_target_with_finite_divergence_is_refused(self):
        target = make_target(
            JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]])), require_positive=False
        )
        p0 = JointDensity(np.array([[0.6, 0.4], [0.0, 0.0]]))
        with pytest.raises(TargetNotPositive):
            run(p0, target, max_half_steps=100, eps=1e-10)

    def test_max_iters_reported(self):
        target = random_positive_target(6, 6, seed=77)
        p0 = JointDensity(gamma_weights(6, 6, seed=78))
        trace = run(p0, target, max_half_steps=3, eps=1e-300)
        assert trace.stop_reason is StopReason.MAX_ITERS
        assert trace.last_t == 3
        assert len(trace.records) == 4

    def test_argument_validation(self):
        target = make_target(DIAG22)
        with pytest.raises(DistributionError):
            run(DIAG22, target, max_half_steps=0, eps=1e-10)
        for eps in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DistributionError, match=f"^eps must be a positive real, got {eps!r}$"):
                run(DIAG22, target, max_half_steps=10, eps=eps)
        with pytest.raises(DimensionMismatch):
            run(JointDensity(np.full((2, 3), 1 / 6)), target, max_half_steps=10, eps=1e-10)

    def test_degenerate_single_row_grid(self):
        # nx=1: the first half-step refreshes X trivially, the second
        # installs the Y marginal, so convergence lands at t=2
        target = random_positive_target(1, 6, seed=9)
        p0 = JointDensity(gamma_weights(1, 6, seed=10))
        trace = run(p0, target, max_half_steps=10, eps=1e-12)
        assert trace.converged and trace.last_t <= 2

    def test_degenerate_single_column_grid(self):
        # ny=1: the very first X refresh already installs the target
        target = random_positive_target(6, 1, seed=9)
        p0 = JointDensity(gamma_weights(6, 1, seed=10))
        trace = run(p0, target, max_half_steps=10, eps=1e-12)
        assert trace.converged and trace.last_t <= 1


class TestRetention:
    def _trace(self, retain: RetainPolicy):
        # 20 steps is below this run's bit-exact convergence point, so the
        # trace reliably spans t=0..20 under MaxIters
        target = random_positive_target(4, 4, seed=33)
        p0 = JointDensity(gamma_weights(4, 4, seed=34))
        return run(p0, target, max_half_steps=20, eps=1e-300, retain=retain)

    def test_retain_all(self):
        trace = self._trace(RetainPolicy.all())
        assert trace.retained_times == list(range(21))

    def test_retain_none_keeps_only_final(self):
        trace = self._trace(RetainPolicy.none())
        assert trace.retained_times == [20]
        assert len(trace.records) == 21
        with pytest.raises(StateNotRetained):
            trace.state_at(0)

    def test_retain_thin_keeps_stride_and_final(self):
        trace = self._trace(RetainPolicy.thin(7))
        assert trace.retained_times == [0, 7, 14, 20]
        assert trace.state_at(14).t == 14

    def test_the_state_at_t0_is_p0_bit_for_bit(self):
        target = random_positive_target(4, 4, seed=33)
        p0 = JointDensity(gamma_weights(4, 4, seed=34))
        for retain in (RetainPolicy.all(), RetainPolicy.thin(7)):
            trace = run(p0, target, max_half_steps=20, eps=1e-300, retain=retain)
            assert trace.state_at(0).density.w.tobytes() == p0.w.tobytes()
        # a run that starts at the target stops at t=0, its final state
        stopped = run(target.joint, target, max_half_steps=20, eps=1e-10, retain=RetainPolicy.none())
        assert stopped.last_t == 0 and stopped.retained_times == [0]
        assert stopped.state_at(0).density.w.tobytes() == target.joint.w.tobytes()

    def test_membership_of_retained_times(self):
        trace = self._trace(RetainPolicy.thin(7))
        assert [t for t in range(-1, 23) if t in trace.states] == [0, 7, 14, 20]
        assert "7" not in trace.states

    def test_missing_state_names_the_count_and_range(self):
        trace = self._trace(RetainPolicy.thin(7))
        with pytest.raises(StateNotRetained) as raised:
            trace.state_at(5)
        assert str(raised.value) == "state at t=5 was not retained (4 retained times in 0..20)"

    def test_the_store_refuses_a_missing_state_with_the_trace_message(self):
        trace = self._trace(RetainPolicy.thin(7))
        message = r"^state at t=5 was not retained \(4 retained times in 0\.\.20\)$"
        for lookup in (trace.joints, trace.states.joints):
            with pytest.raises(StateNotRetained, match=message):
                lookup([0, 14, 5])

    def test_bad_policy_rejected(self):
        with pytest.raises(DistributionError):
            RetainPolicy("every-other")
        with pytest.raises(DistributionError):
            RetainPolicy.thin(0)

    def test_record_at_bounds(self):
        trace = self._trace(RetainPolicy.all())
        assert trace.record_at(5).t == 5
        with pytest.raises(StateNotRetained):
            trace.record_at(21)


class TestValidationBoundary:
    """Densities are validated where they enter the recursion and where a
    retained state leaves it, not on every half-step."""

    def _validations(self, monkeypatch) -> list[int]:
        calls = [0]
        original = dist._validated_pmf

        def counted(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(dist, "_validated_pmf", counted)
        return calls

    def test_run_validates_independently_of_its_length(self, monkeypatch):
        target, p0 = noisy_banded_target(16, 2.0, seed=16), degenerate(16, 16, 0, 15)
        calls = self._validations(monkeypatch)
        counts = {}
        for steps in (50, 200):
            calls[0] = 0
            trace = run(p0, target, max_half_steps=steps, eps=1e-300, retain=RetainPolicy.all())
            assert trace.last_t == steps
            counts[steps] = calls[0]
        assert counts[50] == counts[200]
        # each lookup of a state after t=0 composes and validates its joint
        # anew, once
        calls[0] = 0
        for t in (17, 17, 200):
            trace.state_at(t)
        assert calls[0] == 3

    def test_a_retained_lookup_validates_the_stored_marginal(self):
        target = random_positive_target(4, 4, seed=33)
        p0 = JointDensity(gamma_weights(4, 4, seed=34))
        trace = run(p0, target, max_half_steps=20, eps=1e-300, retain=RetainPolicy.all())
        trace.states._rows[7, 1] = np.nan  # the row of t=7: retain all keeps every time
        with pytest.raises(DistributionError, match="^joint density contains NaN or infinite entries$"):
            trace.state_at(7)
        assert trace.state_at(8).density.strictly_positive


class TestFixedPoint:
    def test_random_targets_are_stationary(self):
        for seed in (2, 8, 13):
            assert fixed_point_residual(random_positive_target(5, 7, seed=seed)) <= 1e-12

    def test_large_grid_stationary(self):
        assert fixed_point_residual(random_positive_target(50, 50, seed=2)) <= 1e-12

    def test_independence_target_stationary(self):
        px = MarginalDensity(Axis.X, np.array([0.1, 0.9]))
        py = MarginalDensity(Axis.Y, np.array([0.3, 0.3, 0.4]))
        assert fixed_point_residual(independence_target(px, py)) <= 1e-12


class TestTraceExport:
    def _converged_trace(self):
        target = make_target(DIAG22)
        p0 = JointDensity(np.array([[0.7, 0.1], [0.1, 0.1]]))
        return run(p0, target, max_half_steps=100, eps=1e-10)

    def test_csv_shape_and_header(self):
        trace = self._converged_trace()
        text = trace_to_csv(trace)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(trace.records) + 1
        # final record: d_step and lemma1_residual columns are empty
        last = lines[-1].split(",")
        assert last[3] == "" and last[4] == ""
        # interior records carry all six fields
        mid = lines[1].split(",")
        assert len(mid) == 6 and all(f != "" for f in mid)

    def test_csv_renders_infinity_literally(self):
        target = make_target(
            JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]])), require_positive=False
        )
        trace = run(JointDensity(np.full((2, 2), 0.25)), target, max_half_steps=5, eps=1e-10)
        row = trace_to_csv(trace).strip().split("\n")[1].split(",")
        assert row[1] == "inf"

    def test_csv_is_bit_stable(self):
        a = trace_to_csv(self._converged_trace())
        b = trace_to_csv(self._converged_trace())
        assert a == b

    def test_json_roundtrips_and_mirrors_csv_fields(self):
        trace = self._converged_trace()
        obj = json.loads(trace_to_json(trace))
        assert obj["stop_reason"] == "Converged"
        assert obj["half_steps"] == trace.last_t
        assert len(obj["records"]) == len(trace.records)
        first = obj["records"][0]
        assert set(first) == {
            "t",
            "d_to_target",
            "tv_to_target",
            "d_step",
            "lemma1_residual",
            "renorm_drift",
        }
        assert obj["records"][-1]["d_step"] is None

    def test_json_infinity_is_a_string(self):
        target = make_target(
            JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]])), require_positive=False
        )
        trace = run(JointDensity(np.full((2, 2), 0.25)), target, max_half_steps=5, eps=1e-10)
        obj = json.loads(trace_to_json(trace))
        assert obj["records"][0]["d_to_target"] == "inf"
        json.dumps(obj)  # strict-JSON serializable


class TestRecordInvariants:
    def test_lemma1_residual_small_on_interior_records(self):
        target = random_positive_target(6, 5, seed=55)
        p0 = JointDensity(gamma_weights(6, 5, seed=56))
        trace = run(p0, target, max_half_steps=60, eps=1e-300)
        for r in trace.records[:-1]:
            assert r.lemma1_residual is not None and r.lemma1_residual <= 1e-10
            assert r.d_step is not None and r.d_step.value >= 0.0

    def test_renorm_drift_recorded_and_tiny(self):
        target = random_positive_target(6, 5, seed=55)
        p0 = JointDensity(gamma_weights(6, 5, seed=56))
        trace = run(p0, target, max_half_steps=60, eps=1e-300)
        assert trace.records[0].renorm_drift == 0.0
        assert max(r.renorm_drift for r in trace.records) <= 1e-12


def reference_trace(p0: JointDensity, target, steps: int):
    """Record tuples and states of `steps` half-steps on the joint reference
    path: `half_step_with_drift` plus joint divergences and distances."""
    states, drifts = [initial_state(p0)], [0.0]
    for _ in range(steps):
        state, drift = half_step_with_drift(states[-1], target)
        states.append(state)
        drifts.append(drift)
    ds = [relative_entropy(s.density, target.joint).value for s in states]
    records = []
    for t, s in enumerate(states):
        d_step = residual = None
        if t < steps:
            d_step = relative_entropy(s.density, states[t + 1].density).value
            residual = abs(ds[t] - d_step - ds[t + 1])
        tv = total_variation(s.density, target.joint)
        records.append((t, ds[t], tv, d_step, residual, drifts[t]))
    return records, states


def _zero_cell_start() -> JointDensity:
    w = gamma_weights(4, 5, seed=91)
    w[1, :] = 0.0
    w[:, 2] = 0.0
    return JointDensity(w / w.sum())


class TestMarginalStateRun:
    """`run` carries one marginal per half-step; the joint half-step is the
    reference it must agree with."""

    @pytest.mark.parametrize(
        "target, p0",
        [
            (random_positive_target(5, 4, seed=61), JointDensity(gamma_weights(5, 4, seed=62))),
            (noisy_banded_target(12, 1.0, seed=63), degenerate(12, 12, 4, 11)),
            (random_positive_target(1, 6, seed=64), JointDensity(gamma_weights(1, 6, seed=65))),
            (random_positive_target(6, 1, seed=66), JointDensity(gamma_weights(6, 1, seed=67))),
            (random_positive_target(4, 5, seed=68), _zero_cell_start()),
        ],
        ids=["random5x4", "banded12-degenerate", "nx1", "ny1", "p0-zero-cells"],
    )
    def test_agrees_with_joint_reference(self, target, p0):
        trace = run(p0, target, max_half_steps=40, eps=1e-300)
        expected, states = reference_trace(p0, target, trace.last_t)
        assert len(trace.records) == len(expected)
        for r, ref in zip(trace.records, expected):
            got = (
                r.t,
                r.d_to_target.value,
                r.tv_to_target,
                None if r.d_step is None else r.d_step.value,
                r.lemma1_residual,
                r.renorm_drift,
            )
            assert got[0] == ref[0]
            for a, b in zip(got[1:], ref[1:]):
                assert (a is None) == (b is None)
                if a is not None:
                    assert abs(a - b) <= 1e-13
        assert trace.retained_times == list(range(trace.last_t + 1))
        for t in trace.retained_times:
            state = trace.state_at(t)
            assert state.t == t and state.last_update is states[t].last_update
            npt.assert_array_equal(trace.state_at(t).density.w, state.density.w)
            npt.assert_allclose(state.density.w, states[t].density.w, atol=1e-15, rtol=0)
        for r in trace.records[:-1]:
            between = relative_entropy(
                trace.state_at(r.t).density, trace.state_at(r.t + 1).density
            )
            assert abs(r.d_step.value - between.value) <= 1e-15


class _FsumCounter:
    """Stands in for the `math` module of `daflow._numeric`, counting the
    elements every correctly rounded sum sees."""

    def __init__(self) -> None:
        self.elements = 0

    def fsum(self, values):
        self.elements += len(values)
        return math.fsum(values)


class TestRunCost:
    @pytest.mark.parametrize("n, steps", [(6, 20), (20, 50)])
    def test_one_joint_sum_per_half_step(self, monkeypatch, n, steps):
        target = noisy_banded_target(n, 1.0, seed=n)
        p0 = degenerate(n, n, 0, n - 1)
        counter = _FsumCounter()
        with monkeypatch.context() as m:
            m.setattr("daflow._numeric.math", counter)
            trace = run(p0, target, max_half_steps=steps, eps=1e-300, retain=RetainPolicy.all())
        assert trace.last_t == steps
        assert counter.elements <= steps * (n * n + 8 * n) + 4 * n * n

    def test_degenerate_start_sums_only_the_support(self, monkeypatch):
        # p_0 has one cell and p_1 one column, so their one-step divergences
        # sum 1 and n terms; only the distance at t=0 sums the whole grid
        n = 30
        target, p0 = noisy_banded_target(n, 1.0, seed=n), degenerate(n, n, 3, 0)
        counter = _FsumCounter()
        with monkeypatch.context() as m:
            m.setattr("daflow._numeric.math", counter)
            trace = run(p0, target, 2, 1e-300)
        assert trace.last_t == 2
        assert counter.elements <= n * n + 20 * n

    @pytest.mark.parametrize("n", [12, 28, 60])
    def test_block_scratch_is_bounded(self, n):
        # a block stacks at most engine._BLOCK_VALUES joint values on any grid
        # that fits several joints in a block
        target, p0 = noisy_banded_target(n, 1.0, seed=n), degenerate(n, n, 0, n - 1)
        tracemalloc.start()
        try:
            trace = run(p0, target, 200, 1e-300, RetainPolicy.none())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.last_t == 200
        assert peak - held < 8 * engine._BLOCK_VALUES * 8

    def test_retained_states_are_built_on_lookup(self):
        n, steps = 60, 400
        target = noisy_banded_target(n, 1.0, seed=60)
        p0 = degenerate(n, n, 0, 0)
        joints_bytes = steps * n * n * 8
        tracemalloc.start()
        try:
            trace = run(p0, target, max_half_steps=steps, eps=1e-300, retain=RetainPolicy.all())
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert len(trace.states) == steps + 1
            assert trace.retained_times == list(range(steps + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < joints_bytes / 10
        assert peak - held < n * n * 8


class TestRunMemory:
    """A 1 x 5 target that never converges to eps 1e-300: 20,000 half-steps
    whose records take 40 B each and whose marginals take 40 B or 8 B."""

    @staticmethod
    def _held_and_peak(retain: RetainPolicy) -> tuple[DATrace, int, int]:
        target = random_positive_target(1, 5, seed=3)
        p0 = random_positive_target(1, 5, seed=4).joint
        tracemalloc.start()
        try:
            trace = run(p0, target, 20_000, 1e-300, retain)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.last_t == 20_000
        return trace, held, peak

    def test_a_retained_state_holds_its_time_and_one_marginal_row(self):
        trace, held_all, peak_all = self._held_and_peak(RetainPolicy.all())
        _, held_none, peak_none = self._held_and_peak(RetainPolicy.none())
        assert len(trace.states) == 20_001
        # an int64 time and a float64 row as wide as the longer side, 5
        assert (held_all - held_none) / 20_000 <= 8 * 5 + 16
        # while the run goes, a kept marginal waits in a bounded batch, and
        # the rows grow in place
        assert (peak_all - peak_none) / 20_000 <= 3 * (8 * 5 + 16)

    def test_the_columns_are_assembled_without_holding_three_copies(self):
        trace, _, peak = self._held_and_peak(RetainPolicy.none())
        assert peak < 2.5 * 40 * len(trace.records)

    def test_the_columns_and_kept_rows_are_never_held_twice(self):
        # each column grows in place while the run goes and is cut to its
        # length at its end; joining per-block pieces held a column and its
        # pieces at once, a peak of 1.39 times what the trace holds
        for retain in (RetainPolicy.all(), RetainPolicy.none()):
            _, held, peak = self._held_and_peak(retain)
            assert peak < 1.25 * held

    def test_the_join_holds_each_column_twice_only_while_it_is_joined(self):
        # each column grows in place and the trace keeps it, so no column is
        # ever held three times
        trace, _, peak = self._held_and_peak(RetainPolicy.none())
        r = trace.records
        columns = sum(getattr(r, name).nbytes for name in engine._FIELDS[1:])
        assert peak < 1.75 * columns


def per_step_run(p0: JointDensity, target, max_half_steps: int, eps: float, retain=RetainPolicy.all()) -> DATrace:
    """`run` with every measurement taken one half-step at a time: the
    reference that the block evaluation must reproduce exactly. Each
    marginal vector is validated as a `MarginalDensity` before it is
    measured, so a trace equal to this one carried only pmfs. Its floats
    are appended to columns, as `run` records them."""
    d_cur = relative_entropy(p0, target.joint)
    tv_cur = total_variation(p0, target.joint)
    target_marginal = {Axis.X: target.marg_x, Axis.Y: target.marg_y}
    d_to_target, tv_to_target, d_steps, residuals, drifts, times, kept = [], [], [], [], [], [], []
    # p_t is p0 or the marginal `src` composed into a target conditional
    t, src, w, drift_cur = 0, np.zeros(0), p0.w, 0.0
    v, _ = engine._renormalized_marginal(w, Axis.Y)
    while True:
        d_to_target.append(d_cur.value)
        tv_to_target.append(tv_cur)
        drifts.append(drift_cur)
        if d_cur.value <= eps:
            stop = StopReason.CONVERGED
            break
        if t >= max_half_steps:
            stop = StopReason.MAX_ITERS
            break
        m = MarginalDensity(Axis.Y if t % 2 == 0 else Axis.X, v)
        w_next = engine._composed(target, v, t + 1)
        d_next = marginal_relative_entropy(m, target_marginal[m.axis])
        tv_next = marginal_total_variation(m, target_marginal[m.axis])
        d_step = _rel_entropy_raw(w, w_next, "relative_entropy")
        d_steps.append(d_step.value)
        residuals.append(abs(d_cur.value - d_step.value - d_next.value))
        if retain.keeps(t):
            times.append(t)
            kept.append(src)
        other = Axis.X if m.axis is Axis.Y else Axis.Y
        t, src, w = t + 1, v, w_next
        v, drift_cur = engine._renormalized_marginal(w, other)
        d_cur, tv_cur = d_next, tv_next
    times.append(t)
    kept.append(src)
    rows = np.zeros((len(kept), max(target.shape)))
    for row, marginal in zip(rows, kept):
        row[: len(marginal)] = marginal
    records = TraceRecords(d_to_target, tv_to_target, d_steps, residuals, drifts)
    states = engine._RetainedStates(target, p0, np.array(times, dtype=np.int64), rows)
    return DATrace(target, records, states, stop)


def assert_same_trace(got: DATrace, expected: DATrace) -> None:
    assert got.stop_reason is expected.stop_reason
    assert got.retained_times == expected.retained_times
    assert got.records == expected.records
    # == cannot tell 0.0 from -0.0; repr can
    assert [repr(r) for r in got.records] == [repr(r) for r in expected.records]
    for t in got.retained_times:
        assert np.array_equal(got.state_at(t).density.w, expected.state_at(t).density.w)


def _degenerate_banded(n: int, i: int, j: int):
    return noisy_banded_target(n, 1.0, seed=n), degenerate(n, n, i, j)


def _stop_at_fourth_block_end():
    """A converging case whose eps lies between the divergences recorded at
    t=14 and t=15, so the run stops on the last half-step of its fourth
    block."""
    target, p0 = _degenerate_banded(9, 2, 5)
    d = [r.d_to_target.value for r in per_step_run(p0, target, 15, 1e-300).records]
    assert d[14] > d[15] > 0.0
    return target, p0, 500, math.sqrt(d[14] * d[15]), RetainPolicy.all()


# (target, p0, max_half_steps, eps, retain); the block sizes run 1, 2, 4, ...
# up to a cap, so the first blocks end after half-steps 1, 3, 7, 15, ...
BLOCK_CASES = {
    "max-steps-1": (*_degenerate_banded(9, 0, 0), 1, 1e-300, RetainPolicy.all()),
    "max-steps-block-end": (*_degenerate_banded(9, 0, 0), 15, 1e-300, RetainPolicy.all()),
    "stop-block-end": _stop_at_fourth_block_end(),
    "stop-mid-block": (*_degenerate_banded(12, 3, 11), 500, 1e-9, RetainPolicy.all()),
    "max-steps-mid-block": (*_degenerate_banded(9, 0, 0), 21, 1e-300, RetainPolicy.all()),
    "degenerate-first-column": (*_degenerate_banded(7, 6, 0), 400, 1e-13, RetainPolicy.all()),
    "p0-zero-cells": (random_positive_target(4, 5, seed=68), _zero_cell_start(), 400, 1e-14, RetainPolicy.all()),
    "nx-ne-ny": (random_positive_target(7, 3, seed=70), degenerate(7, 3, 2, 1), 400, 1e-14, RetainPolicy.all()),
    "nx1": (random_positive_target(1, 6, seed=64), JointDensity(gamma_weights(1, 6, seed=65)), 50, 1e-300, RetainPolicy.all()),
    "ny1": (random_positive_target(6, 1, seed=66), JointDensity(gamma_weights(6, 1, seed=67)), 50, 1e-300, RetainPolicy.all()),
    "thin": (*_degenerate_banded(10, 4, 9), 300, 1e-300, RetainPolicy.thin(7)),
    "thin-stop": (*_degenerate_banded(10, 4, 0), 500, 1e-10, RetainPolicy.thin(3)),
    "none": (random_positive_target(5, 6, seed=71), JointDensity(gamma_weights(5, 6, seed=72)), 500, 1e-12, RetainPolicy.none()),
    "grid-60": (noisy_banded_target(60, 1.0, seed=73), degenerate(60, 60, 0, 59), 40, 1e-300, RetainPolicy.all()),
}


def run_case(case: str) -> DATrace:
    target, p0, max_half_steps, eps, retain = BLOCK_CASES[case]
    return run(p0, target, max_half_steps, eps, retain)


class TestBlockRun:
    """`run` measures blocks of half-steps in stacked operations; every
    record, retained time and stop reason equals the per-step loop's."""

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_equals_the_per_step_loop(self, case):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES[case]
        trace = run(p0, target, max_half_steps, eps, retain)
        assert_same_trace(trace, per_step_run(p0, target, max_half_steps, eps, retain))

    def test_cases_stop_where_they_claim(self, monkeypatch):
        composed = _counting(monkeypatch, "_composed")
        stop = run_case("stop-mid-block")
        # half-steps computed past the stop: it fell inside a block
        assert stop.converged and composed[0] > stop.last_t
        capped = run_case("max-steps-mid-block")
        assert capped.stop_reason is StopReason.MAX_ITERS and capped.last_t == 21
        for case, last_t in (("max-steps-1", 1), ("max-steps-block-end", 15)):
            capped = run_case(case)
            assert capped.stop_reason is StopReason.MAX_ITERS and capped.last_t == last_t
        composed[0] = 0
        block_end = run_case("stop-block-end")
        # the stop fell on a block's last half-step: nothing was composed past it
        assert block_end.converged and block_end.last_t == composed[0] == 15
        assert run_case("thin-stop").converged
        for case in ("degenerate-first-column", "p0-zero-cells", "nx-ne-ny"):
            trace = run_case(case)
            assert trace.converged and trace.last_t > 7
        start = BLOCK_CASES["degenerate-first-column"][1]
        assert start.w.min() == 0.0
        assert run_case("degenerate-first-column").state_at(1).density.w.min() == 0.0

    def test_every_measurement_failing_in_blocks_falls_back_to_single_steps(self, monkeypatch):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES["stop-mid-block"]
        expected = per_step_run(p0, target, max_half_steps, eps, retain)
        original = engine._rel_entropy_array
        stacked = [0]

        def single_rows_only(p, qs, *args):
            if len(qs) > 1:
                stacked[0] += 1
                raise DistributionError("stacked")
            return original(p, qs, *args)

        monkeypatch.setattr(engine, "_rel_entropy_array", single_rows_only)
        assert_same_trace(run(p0, target, max_half_steps, eps, retain), expected)
        # the run measured a block in one stacked call before it fell back
        assert stacked[0] > 0


def _counting(monkeypatch, name: str) -> list[int]:
    calls = [0]
    original = getattr(engine, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(engine, name, counted)
    return calls


def _failing_from(monkeypatch, k: int) -> list[int]:
    """Make `_renormalized_marginal` raise on the joint of half-step k or
    later, however often and in whatever order joints are renormalized, and
    return the count of raises.

    A composed joint's half-step is one past that of the marginal composed
    into it, and a marginal's is that of the joint it was taken from; the
    starting joint, which is never composed, is half-step 0.
    """
    composed, renormalized = engine._composed, engine._renormalized_marginal
    joint_t, marginal_t, raised = {}, {}, [0]

    def composing(target, v, t, out=None):
        w = composed(target, v, t, out)
        joint_t[w.ctypes.data] = marginal_t[id(v)] + 1
        return w

    def renormalizing(w, axis):
        t = joint_t.get(w.ctypes.data, 0)
        if t >= k:
            raised[0] += 1
            raise DistributionError(f"renormalized the joint of half-step {t}")
        v, drift = renormalized(w, axis)
        marginal_t[id(v)] = t
        return v, drift

    monkeypatch.setattr(engine, "_composed", composing)
    monkeypatch.setattr(engine, "_renormalized_marginal", renormalizing)
    return raised


def _trace_or_error(run_fn, *args) -> DATrace | str:
    try:
        return run_fn(*args)
    except DistributionError as e:
        return str(e)


class TestLookAhead:
    @pytest.mark.parametrize("case", ["stop-mid-block", "thin-stop", "none"])
    def test_composes_at_most_twice_the_half_steps_run(self, monkeypatch, case):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES[case]
        calls = _counting(monkeypatch, "_composed")
        trace = run(p0, target, max_half_steps, eps, retain)
        assert trace.converged
        assert trace.last_t <= calls[0] <= 2 * trace.last_t

    def test_blocks_that_keep_nothing_copy_no_rows(self, monkeypatch):
        # under retain none only the shared empty entry, t=0's entry and the
        # final state reach `_kept`, however many blocks the run takes
        calls = _counting(monkeypatch, "_kept")
        trace = run_case("none")
        assert trace.last_t > 10 and calls[0] == 3

    def test_small_grid_run_looks_ahead_by_at_most_what_it_did(self, monkeypatch):
        # a 4x4 grid admits blocks of 64 half-steps; a run of about 15
        # half-steps must not compute a whole one
        target = random_positive_target(4, 4, seed=0)
        p0 = JointDensity(gamma_weights(4, 4, seed=1))
        calls = _counting(monkeypatch, "_composed")
        trace = run(p0, target, 10_000, 1e-10)
        assert trace.converged and trace.last_t < 32
        assert calls[0] <= 2 * trace.last_t

    def test_failure_past_the_stop_never_surfaces(self, monkeypatch):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES["stop-mid-block"]
        expected = per_step_run(p0, target, max_half_steps, eps, retain)
        # the per-step loop renormalizes the joints of half-steps 0..last_t
        with monkeypatch.context() as m:
            raised = _failing_from(m, expected.last_t + 1)
            trace = run(p0, target, max_half_steps, eps, retain)
        assert raised[0] > 0  # the run looked ahead, into the failure
        assert_same_trace(trace, expected)

        with monkeypatch.context() as m:
            _failing_from(m, expected.last_t)
            with pytest.raises(DistributionError, match=f"half-step {expected.last_t}$"):
                run(p0, target, max_half_steps, eps, retain)

    def test_measurement_failure_past_the_stop_never_surfaces(self, monkeypatch):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES["stop-mid-block"]
        expected = per_step_run(p0, target, max_half_steps, eps, retain)
        original = engine._rel_entropy_array
        one_step = [0]

        def failing(p, qs, *args):
            # stacks always fail; single one-step divergences fail from the
            # first one the per-step loop never takes
            if len(qs) > 1:
                raise DistributionError("stacked")
            if not args:
                one_step[0] += 1
                if one_step[0] > expected.last_t:
                    raise DistributionError("measured past the stop")
            return original(p, qs, *args)

        monkeypatch.setattr(engine, "_rel_entropy_array", failing)
        assert_same_trace(run(p0, target, max_half_steps, eps, retain), expected)
        one_step[0] = 1
        with pytest.raises(DistributionError, match="past the stop"):
            run(p0, target, max_half_steps, eps, retain)

    def test_a_nan_one_step_divergence_is_refused_where_the_per_step_loop_meets_it(self, monkeypatch):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES["stop-mid-block"]
        expected = per_step_run(p0, target, max_half_steps, eps, retain)
        # D(p_s || p_(s+1)) for every s up to the stop, which the run's last
        # block computes past it
        d_step = per_step_run(p0, target, expected.last_t + 1, 1e-300).records.d_step
        original = engine._rel_entropy_array
        calls = []

        def nan_at(s: int) -> None:
            def patched(p, qs, *args):
                out = original(p, qs, *args)
                if not args:
                    # the one-step divergences: NaN in place of half-step s's
                    hit = out == d_step[s]
                    calls.append((len(qs), bool(hit.any())))
                    out[hit] = math.nan
                return out

            monkeypatch.setattr(engine, "_rel_entropy_array", patched)

        # half-step 5 sits inside the block of half-steps 3 to 6
        nan_at(5)
        with pytest.raises(DistributionError, match="^ExtReal cannot hold NaN$"):
            run(p0, target, max_half_steps, eps, retain)
        # the block holding it raised, then single steps ran up to it
        first = next(i for i, (_, hit) in enumerate(calls) if hit)
        assert calls[first][0] == 4 and calls[first + 1:] == [(1, False), (1, False), (1, True)]

        calls.clear()
        nan_at(expected.last_t)
        assert_same_trace(run(p0, target, max_half_steps, eps, retain), expected)
        # a block computed the NaN, and no single step reached it
        assert [rows > 1 for rows, hit in calls if hit] == [True]

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_a_failing_half_step_surfaces_as_in_the_per_step_loop(self, monkeypatch, case):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES[case]
        last_t = per_step_run(p0, target, max_half_steps, eps, retain).last_t
        # below the cap, blocks compose half-steps 1, 2-3, 4-7, 8-15, ...: 4
        # starts a block, 6 and 10 sit inside one
        for k in sorted({4, 6, 10, last_t, last_t + 1}):
            with monkeypatch.context() as m:
                _failing_from(m, k)
                got = _trace_or_error(run, p0, target, max_half_steps, eps, retain)
                expected = _trace_or_error(per_step_run, p0, target, max_half_steps, eps, retain)
            assert type(got) is type(expected), k
            if isinstance(expected, str):
                assert got == expected == f"renormalized the joint of half-step {k}"
            else:
                assert k > last_t
                assert_same_trace(got, expected)


def reference_fields(r: TraceRecord) -> list:
    """A record's fields as the per-record encoder wrote them: each through
    `encode`."""
    return [encode(getattr(r, name)) for name in CSV_HEADER.split(",")]


def reference_csv(trace: DATrace) -> str:
    """The trace CSV as the per-record encoder wrote it, one row per record."""
    rows = [",".join("" if v is None else str(v) for v in reference_fields(r)) for r in trace.records]
    return "\n".join([CSV_HEADER, *rows]) + "\n"


def reference_json(trace: DATrace) -> str:
    """The trace JSON as ``json.dumps(indent=1)`` writes the per-record dicts."""
    doc = {
        "nx": trace.target.nx,
        "ny": trace.target.ny,
        "stop_reason": trace.stop_reason.value,
        "half_steps": trace.last_t,
        "retained_times": trace.retained_times,
        "records": [dict(zip(CSV_HEADER.split(","), reference_fields(r))) for r in trace.records],
    }
    return json.dumps(doc, indent=1) + "\n"


def _infinite_start_trace() -> DATrace:
    target = make_target(JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]])), require_positive=False)
    return run(JointDensity(np.full((2, 2), 0.25)), target, max_half_steps=5, eps=1e-10)


def _max_iters_trace() -> DATrace:
    target, p0 = _degenerate_banded(12, 0, 11)
    return run(p0, target, 30, 1e-300, RetainPolicy.thin(4))


EXPORT_CASES = {
    **{case: (lambda case=case: run_case(case)) for case in BLOCK_CASES},
    "infinite-start": _infinite_start_trace,
    "max-iters": _max_iters_trace,
}


class TestColumnExport:
    """The CSV and JSON are formatted from the records' columns, byte for
    byte what the per-record encoder wrote."""

    @pytest.mark.parametrize("rows", [1, 3, None])
    @pytest.mark.parametrize("case", list(EXPORT_CASES))
    def test_exports_equal_the_per_record_encoder(self, case, rows, monkeypatch):
        trace = EXPORT_CASES[case]()
        if rows:
            # chunks of one or three rows, so chunk edges fall inside the trace
            monkeypatch.setattr(_fsio, "TABLE_ROWS", rows)
        assert trace_to_csv(trace) == reference_csv(trace)
        assert trace_to_json(trace) == reference_json(trace)

    def test_cases_cover_an_infinity_and_a_budget_stop(self):
        infinite = EXPORT_CASES["infinite-start"]()
        assert infinite.stop_reason is StopReason.INFINITE_INITIAL_DIVERGENCE and infinite.last_t == 0
        assert trace_to_csv(infinite).splitlines()[1] == "0,inf,1.0,,,0.0"
        assert EXPORT_CASES["max-iters"]().stop_reason is StopReason.MAX_ITERS

    def test_a_hand_built_trace_exports_as_its_columns(self):
        target, p0, max_half_steps, eps, retain = BLOCK_CASES["thin-stop"]
        expected = per_step_run(p0, target, max_half_steps, eps, retain)
        assert trace_to_csv(expected) == reference_csv(expected) == trace_to_csv(run_case("thin-stop"))
        assert trace_to_json(expected) == reference_json(expected)

    def test_run_and_exports_build_no_record(self, monkeypatch):
        built = [0]

        def counted(*args):
            built[0] += 1
            return TraceRecord(*args)

        monkeypatch.setattr(engine, "TraceRecord", counted)
        trace = run_case("stop-mid-block")
        trace_to_csv(trace)
        trace_to_json(trace)
        assert built[0] == 0
        # reading a record builds it, so the counter sees construction
        assert trace.records[-1].d_step is None and built[0] == 1


def export_floats(allow_negative_infinity: bool) -> st.SearchStrategy[float]:
    """The values the float kernel leaves to repr (zeros, subnormals, powers
    of two, edges and infinities) and 17-digit values; a divergence column
    holds no -inf."""
    edges = st.sampled_from([x for x in EDGE_FLOATS if allow_negative_infinity or x != -math.inf])
    twos = st.integers(-1074, 1023).map(lambda e: math.ldexp(1.0, e))
    return st.one_of(edges, twos, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def edge_records(draw) -> TraceRecords:
    """Records of 17-digit values with edge values drawn into some of their
    cells; 45 records or more hold enough nonzero values for the float
    kernel, so its text and repr's meet in one block."""
    n = draw(st.one_of(st.integers(1, 5), st.integers(45, 80)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for name in engine._FIELDS[1:]:
        column = rng.gamma(1.0, size=n - 1 if name in ("d_step", "lemma1_residual") else n) / 7.0
        for i in draw(st.lists(st.integers(0, max(len(column) - 1, 0)), max_size=6 if len(column) else 0)):
            column[i] = draw(export_floats(name not in ("d_to_target", "d_step")))
        columns.append(column)
    return TraceRecords(*columns)


class TestEdgeValueExport:
    @settings(max_examples=60, deadline=None)
    @given(records=edge_records())
    def test_exports_equal_the_per_record_encoder(self, records):
        base = run_case("thin")
        trace = DATrace(base.target, records, base.states, base.stop_reason)
        # chunks of one and three rows, and the default, whose one chunk
        # mixes the kernel's text with repr's
        for rows in (1, 3, _fsio.TABLE_ROWS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_fsio, "TABLE_ROWS", rows)
                assert trace_to_csv(trace) == reference_csv(trace)
                assert trace_to_json(trace) == reference_json(trace)


class TestTraceRecords:
    def test_records_are_built_as_python_values(self):
        trace = run_case("stop-mid-block")
        for r in (trace.records[0], trace.records[-2]):
            assert type(r.d_to_target.value) is float and type(r.tv_to_target) is float
            assert type(r.d_step.value) is float and type(r.lemma1_residual) is float
            assert type(r.renorm_drift) is float
        assert trace.records[-1] == trace.record_at(trace.last_t) == trace.records[len(trace.records) - 1]
        assert trace.records[1:3] == (trace.records[1], trace.records[2])
        with pytest.raises(IndexError):
            trace.records[len(trace.records)]

    def test_columns_of_inconsistent_length_are_refused(self):
        r = run_case("thin").records
        columns = [r.d_to_target, r.tv_to_target, r.d_step, r.lemma1_residual, r.renorm_drift]
        assert TraceRecords(*columns) == r != TraceRecords(*(c[:-1] for c in columns))
        # records compare equal only to records
        assert r != tuple(r)
        for i in range(len(columns)):
            with pytest.raises(DistributionError, match="need n, n, n - 1, n - 1 and n >= 1 entries"):
                TraceRecords(*(c[:-1] if j == i else c for j, c in enumerate(columns)))
        with pytest.raises(DistributionError, match=r"got \[0, 0, 0, 0, 0\]"):
            TraceRecords([], [], [], [], [])
        assert TraceRecords([math.inf], [1.0], [], [], [0.0])[0].d_step is None

    def test_owned_read_only_columns_are_kept_and_caller_arrays_copied(self):
        # as ChainDraws does: a float64 column that owns its data and is
        # read-only, as run hands over, is kept; a writable array and a view
        # are copied, so a later write by the caller reaches no trace
        r = run_case("thin").records
        names = engine._FIELDS[1:]
        columns = [getattr(r, name) for name in names]
        kept = TraceRecords(*columns)
        assert all(getattr(kept, name) is column for name, column in zip(names, columns))
        writable = [column.copy() for column in columns]
        view = writable[0].view()
        view.setflags(write=False)
        copied = TraceRecords(view, *writable[1:])
        writable[0][0] = writable[1][0] = 99.0
        assert copied == r and not copied.tv_to_target.flags.writeable

    def test_columns_are_read_only_and_refuse_times_outside_the_trace(self):
        trace = run_case("max-steps-block-end")
        assert not trace.records.d_to_target.flags.writeable
        npt.assert_array_equal(trace.column("d_step", [0, 3]), [trace.record_at(t).d_step.value for t in (0, 3)])
        for t in (-1, trace.last_t + 1):
            with pytest.raises(StateNotRetained, match=f"no record at t={t}"):
                trace.column("d_to_target", [0, t])
        # the final record has no successor, so no one-step values
        assert trace.column("d_to_target", [trace.last_t])[0] == trace.records[-1].d_to_target.value
        for name in ("d_step", "lemma1_residual"):
            with pytest.raises(StateNotRetained, match=f"no {name} at t={trace.last_t}"):
                trace.column(name, [0, trace.last_t])
