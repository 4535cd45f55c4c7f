"""Divergence and distance: values, conventions, and inequalities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import joint_weight_pairs
from daflow.dist import Axis, JointDensity, MarginalDensity, marginal
from daflow.errors import DimensionMismatch, DistributionError
from daflow.metrics import (
    ExtReal,
    encode,
    marginal_relative_entropy,
    marginal_total_variation,
    pinsker_gap,
    relative_entropy,
    total_variation,
)

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
