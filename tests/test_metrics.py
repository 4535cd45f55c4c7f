"""Divergence and distance: values, conventions, and inequalities."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import joint_weight_pairs
import daflow.metrics as metrics
from daflow._numeric import BINNED_MIN_ENTRIES, stable_row_sums
from daflow.dist import Axis, ConditionalKernel, Direction, JointDensity, MarginalDensity, marginal
from daflow.errors import DimensionMismatch, DistributionError
from daflow.metrics import (
    ExtReal,
    _rel_entropy_array,
    encode,
    marginal_relative_entropy,
    marginal_total_variation,
    pinsker_gap,
    relative_entropy,
    total_variation,
)
from daflow.sampler import EmpiricalDensity

UNIFORM22 = JointDensity(np.full((2, 2), 0.25))
DIAG22 = JointDensity(np.array([[0.4, 0.1], [0.1, 0.4]]))


class TestExtReal:
    def test_rejects_nan_and_negative_infinity(self):
        with pytest.raises(DistributionError):
            ExtReal(float("nan"))
        with pytest.raises(DistributionError):
            ExtReal(-math.inf)

    def test_finite_constructor_rejects_infinity(self):
        with pytest.raises(DistributionError):
            ExtReal.finite(math.inf)

    def test_arithmetic_and_order(self):
        a, b = ExtReal.finite(1.5), ExtReal.finite(0.25)
        inf = ExtReal.pos_infinity()
        assert float(a + b) == 1.75
        assert float(a - b) == 1.25
        assert float(a + inf) == math.inf
        assert b < a < inf
        assert not inf < inf
        assert inf <= inf

    def test_infinity_minus_infinity_raises(self):
        inf = ExtReal.pos_infinity()
        with pytest.raises(DistributionError):
            inf - inf

    def test_str_renders_inf_without_nan(self):
        assert str(ExtReal.pos_infinity()) == "inf"
        assert "0.5" in str(ExtReal.finite(0.5))


class TestEncode:
    @pytest.mark.parametrize(
        "value, exported",
        [
            (None, None),
            (7, 7),
            (0.1, 0.1),
            (np.float64(0.1), 0.1),
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (ExtReal.finite(0.25), 0.25),
            (ExtReal.pos_infinity(), "inf"),
        ],
    )
    def test_exported_forms(self, value, exported):
        out = encode(value)
        assert out == exported and type(out) is type(exported)


class TestRelativeEntropy:
    def test_uniform_vs_diagonal_oracle(self):
        # hand value: 0.5*ln(0.625) + 0.5*ln(2.5) = ln(5/4)
        d = relative_entropy(UNIFORM22, DIAG22)
        assert d.is_finite
        assert d.value == pytest.approx(0.5 * math.log(0.625) + 0.5 * math.log(2.5), abs=1e-15)
        assert d.value == pytest.approx(math.log(1.25), abs=1e-15)

    def test_self_divergence_is_exactly_zero(self):
        assert relative_entropy(DIAG22, DIAG22).value == 0.0

    def test_support_escape_is_pos_infinity(self):
        degenerate = JointDensity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        d = relative_entropy(DIAG22, degenerate)
        assert not d.is_finite
        assert str(d) == "inf"

    def test_zero_times_log_zero_is_zero(self):
        point = JointDensity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        d = relative_entropy(point, UNIFORM22)
        assert d.value == pytest.approx(math.log(4.0), abs=1e-15)

    def test_shared_zero_cells_stay_finite(self):
        p = JointDensity(np.array([[0.7, 0.0], [0.3, 0.0]]))
        q = JointDensity(np.array([[0.5, 0.0], [0.5, 0.0]]))
        d = relative_entropy(p, q)
        assert d.is_finite
        assert d.value == pytest.approx(0.7 * math.log(1.4) + 0.3 * math.log(0.6), abs=1e-15)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(UNIFORM22, JointDensity(np.full((2, 3), 1 / 6)))

    def test_marginal_variant_checks_axis(self):
        mx = MarginalDensity(Axis.X, np.array([0.5, 0.5]))
        my = MarginalDensity(Axis.Y, np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            marginal_relative_entropy(mx, my)

    def test_marginal_variant_value(self):
        a = MarginalDensity(Axis.X, np.array([0.5, 0.5]))
        b = MarginalDensity(Axis.X, np.array([0.8, 0.2]))
        d = marginal_relative_entropy(a, b)
        assert d.value == pytest.approx(0.5 * math.log(0.625) + 0.5 * math.log(2.5), abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(pq=joint_weight_pairs(allow_zeros=True))
    def test_nonnegative_and_never_nan(self, pq):
        p, q = JointDensity(pq[0]), JointDensity(pq[1])
        d = relative_entropy(p, q)
        assert d.value >= 0.0
        assert not math.isnan(d.value)

    @settings(max_examples=80, deadline=None)
    @given(pq=joint_weight_pairs())
    def test_data_processing_for_marginals(self, pq):
        p, q = JointDensity(pq[0]), JointDensity(pq[1])
        d_joint = relative_entropy(p, q)
        for axis in (Axis.X, Axis.Y):
            d_marg = marginal_relative_entropy(marginal(p, axis), marginal(q, axis))
            assert d_marg.value <= d_joint.value + 1e-12


def pmf_rows(rng: np.random.Generator, rows: int, n: int, zeros: float = 0.0) -> np.ndarray:
    """Rows of gamma weights normalized to 1, each cell zero with probability
    `zeros` and the first cell of a row always kept."""
    w = rng.gamma(1.0, size=(rows, n))
    w[rng.random((rows, n)) < zeros] = 0.0
    w[:, 0] += 0.5
    return w / w.sum(axis=1, keepdims=True)


def term_sum(p: np.ndarray, q: np.ndarray) -> float:
    """math.fsum of p * log(p / q) over the support of p, +inf where q
    vanishes on it."""
    on = p > 0.0
    if (q[on] == 0.0).any():
        return math.inf
    return math.fsum((p[on] * np.log(p[on] / q[on])).tolist())


class TestDivergenceRows:
    # a stack of fewer than BINNED_MIN_ENTRIES entries is summed row by row
    # by fsum, a larger stack and a single long row by extraction
    @pytest.mark.parametrize("rows, n", [(6, 40), (12, BINNED_MIN_ENTRIES // 8 + 8), (1, BINNED_MIN_ENTRIES + 5)])
    @pytest.mark.parametrize("paired", [False, True])
    def test_exactly_the_rows_where_q_vanishes_on_the_support_are_infinite(self, rows, n, paired):
        rng = np.random.default_rng(rows * n + paired)
        stack = max(rows, 6)
        ps = pmf_rows(rng, stack, n, zeros=0.2)
        qs = pmf_rows(rng, stack, n)
        p_of = (lambda i: ps[i]) if paired else (lambda i: ps[0])
        vanishing = {1, 4}
        for i in range(stack):
            support = np.flatnonzero(p_of(i) > 0.0)
            outside = np.flatnonzero(p_of(i) == 0.0)
            if i in vanishing:
                qs[i, support[-1]] = 0.0
            elif outside.size:
                # a zero of q off the support changes nothing
                qs[i, outside[0]] = 0.0
        if rows == 1:
            got = [_rel_entropy_array(ps[i : i + 1] if paired else ps[0], qs[i : i + 1])[0] for i in range(stack)]
        else:
            got = _rel_entropy_array(ps if paired else ps[0], qs).tolist()
        assert {i for i, d in enumerate(got) if d == math.inf} == vanishing
        for i, d in enumerate(got):
            assert d == term_sum(p_of(i), qs[i])
            assert d == _rel_entropy_array(p_of(i), qs[i][None])[0]

    @pytest.mark.parametrize("rows, n", [(4, 256), (3, 1024), (40, 64), (3, 5000)])
    @pytest.mark.parametrize("paired", [False, True])
    @pytest.mark.parametrize("vanishing", [(), (1,), (0, 2), "all"])
    def test_infinite_rows_are_decided_without_summing(self, rows, n, paired, vanishing, monkeypatch):
        rng = np.random.default_rng(rows * n + 2 * paired + len(vanishing))
        ps = pmf_rows(rng, rows, n, zeros=0.3)
        qs = pmf_rows(rng, rows, n)
        p_of = (lambda i: ps[i]) if paired else (lambda i: ps[0])
        # a subnormal q on the support overflows one term of the last row: it
        # is given +inf, then summed again to a finite value
        qs[-1, 0] = 1e-320
        vanishing = range(rows) if vanishing == "all" else vanishing
        for i in vanishing:
            # q vanishes on a few cells of the support, so the row holds +inf terms
            qs[i, np.flatnonzero(p_of(i) > 0.0)[-3:]] = 0.0
        summed = []

        def spy(a):
            summed.append(a.shape[0])
            return stable_row_sums(a)

        monkeypatch.setattr(metrics, "stable_row_sums", spy)
        got = _rel_entropy_array(ps if paired else ps[0], qs).tolist()
        infinite = sum(1 for i in range(rows) if i in vanishing or i == rows - 1)
        assert summed == ([rows - infinite] if infinite < rows else [0])
        for i, d in enumerate(got):
            p, q = p_of(i), qs[i]
            on = p > 0.0
            with np.errstate(divide="ignore", over="ignore"):
                want = math.fsum((p[on] * np.log(p[on] / q[on])).tolist())
            if want == math.inf and q[on].min() > 0.0:
                want = math.fsum((p[on] * (np.log(p[on]) - np.log(q[on]))).tolist())
            assert d == max(want, 0.0)
            assert (d == math.inf) == (i in vanishing)

    def test_a_subnormal_q_cell_gives_the_exact_finite_sum(self):
        p = np.full(6, 1 / 6)
        q = np.array([0.3, 0.2, 1e-314, 0.25, 0.15, 0.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = _rel_entropy_array(p, q[None])[0]
            pj, qj = JointDensity(p.reshape(2, 3)), JointDensity(q.reshape(2, 3))
            joint = relative_entropy(pj, qj)
        assert math.isfinite(d)
        assert d == math.fsum((p * (np.log(p) - np.log(q))).tolist())
        assert joint.value == math.fsum((pj.w * (np.log(pj.w) - np.log(qj.w))).ravel().tolist())

    @pytest.mark.parametrize("paired", [False, True])
    def test_only_a_row_with_q_positive_on_its_support_is_summed_again(self, paired):
        p = np.full((3, 6), 1 / 6)
        if paired:
            # the third row's support leaves out the subnormal cell
            p[2] = [0.25, 0.25, 0.0, 0.25, 0.25, 0.0]
        qs = np.array([
            [0.3, 0.2, 1e-314, 0.25, 0.15, 0.1],
            [0.3, 0.0, 1e-314, 0.25, 0.25, 0.2],
            [0.3, 0.2, 1e-314, 0.25, 0.15, 0.1],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _rel_entropy_array(p if paired else p[0], qs).tolist()
        on = p[0] > 0.0
        assert got[0] == math.fsum((p[0][on] * (np.log(p[0][on]) - np.log(qs[0][on]))).tolist())
        assert got[1] == math.inf
        if paired:
            assert got[2] == term_sum(p[2], qs[2])
        else:
            assert got[2] == got[0]


class TestTotalVariation:
    def test_oracle_value(self):
        assert total_variation(UNIFORM22, DIAG22) == pytest.approx(0.6, abs=1e-15)

    def test_identity_and_symmetry(self):
        assert total_variation(DIAG22, DIAG22) == 0.0
        a = JointDensity(np.array([[0.7, 0.1], [0.1, 0.1]]))
        assert total_variation(a, DIAG22) == total_variation(DIAG22, a)

    def test_maximum_is_two_for_disjoint_support(self):
        a = JointDensity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        b = JointDensity(np.array([[0.0, 0.0], [0.0, 1.0]]))
        assert total_variation(a, b) == pytest.approx(2.0, abs=1e-15)

    def test_marginal_variant(self):
        a = MarginalDensity(Axis.Y, np.array([0.5, 0.5]))
        b = MarginalDensity(Axis.Y, np.array([0.9, 0.1]))
        assert marginal_total_variation(a, b) == pytest.approx(0.8, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(pq=joint_weight_pairs(allow_zeros=True))
    def test_range_and_triangle_inequality(self, pq):
        p, q = JointDensity(pq[0]), JointDensity(pq[1])
        u = JointDensity(np.full(p.shape, 1.0 / (p.nx * p.ny)))
        v = total_variation(p, q)
        assert 0.0 <= v <= 2.0
        assert v <= total_variation(p, u) + total_variation(u, q) + 1e-12


class TestPinskerGap:
    def test_oracle_pair(self):
        g = pinsker_gap(UNIFORM22, DIAG22)
        v = total_variation(UNIFORM22, DIAG22)
        assert g.value == pytest.approx(math.log(1.25) - 0.5 * v * v, abs=1e-15)
        assert g.value > 0.0

    def test_infinite_divergence_gives_infinite_gap(self):
        degenerate = JointDensity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        g = pinsker_gap(DIAG22, degenerate)
        assert not g.is_finite

    def test_identical_densities_gap_zero(self):
        assert pinsker_gap(DIAG22, DIAG22).value == 0.0

    @settings(max_examples=100, deadline=None)
    @given(pq=joint_weight_pairs(allow_zeros=True))
    def test_gap_never_meaningfully_negative(self, pq):
        p, q = JointDensity(pq[0]), JointDensity(pq[1])
        g = pinsker_gap(p, q)
        assert g.value >= -1e-12


def _x(v) -> MarginalDensity:
    return MarginalDensity(Axis.X, np.array(v))


class TestRefusals:
    @pytest.mark.parametrize(
        "call, error, message",
        [
            (
                lambda: total_variation(UNIFORM22, JointDensity(np.full((1, 4), 0.25))),
                DimensionMismatch, "total_variation: shapes (2, 2) and (1, 4) differ",
            ),
            (
                lambda: marginal_total_variation(_x([0.5, 0.5]), MarginalDensity(Axis.Y, np.array([0.5, 0.5]))),
                DimensionMismatch, "cannot compare a x-marginal against a y-marginal",
            ),
            (
                lambda: marginal_total_variation(_x([0.5, 0.5]), _x([0.25, 0.25, 0.5])),
                DimensionMismatch, "total_variation: lengths 2 and 3 differ",
            ),
            (
                lambda: _rel_entropy_array(np.array([0.5]), np.array([[1.0]])),
                DistributionError, "relative_entropy: divergence -0.34657359027997264 is negative beyond rounding",
            ),
            (
                lambda: MarginalDensity(Axis.X, np.full((2, 2), 0.25)),
                DistributionError, "marginal weights must be a nonempty vector, got shape (2, 2)",
            ),
            (
                lambda: ConditionalKernel(Direction.Y_GIVEN_X, np.array([0.5, 0.5]), np.array([True])),
                DistributionError, "kernel must be a nonempty 2-D matrix, got shape (2,)",
            ),
            (
                lambda: EmpiricalDensity(np.zeros((2, 2), dtype=np.int64)).to_joint(),
                DistributionError, "cannot normalize an empty histogram",
            ),
        ],
        ids=[
            "tv-shapes", "marginal-tv-axes", "marginal-tv-lengths", "negative-divergence",
            "marginal-not-a-vector", "kernel-not-a-matrix", "empty-histogram",
        ],
    )
    def test_refusal_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
