"""Distribution types: validation, marginalization, conditioning, composition."""

from __future__ import annotations

import hashlib
import json
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings

from conftest import gamma_weights, joint_weights_with_zeros, positive_joint_weights
import daflow.dist as dist
from daflow.dist import (
    Axis,
    ConditionalKernel,
    Direction,
    JointDensity,
    MarginalDensity,
    compose,
    compose_with_drift,
    conditional,
    independence_target,
    joint_from_json_dict,
    joint_to_json_dict,
    load_joint,
    make_target,
    marginal,
    random_positive_target,
    save_joint,
)
from daflow.errors import DimensionMismatch, DistributionError, PositivityViolation


class TestJointDensityValidation:
    def test_accepts_exact_pmf(self):
        p = JointDensity(np.array([[0.25, 0.25], [0.25, 0.25]]))
        assert p.shape == (2, 2)
        assert p.strictly_positive

    def test_rejects_negative_mass(self):
        with pytest.raises(DistributionError, match="negative"):
            JointDensity(np.array([[0.6, 0.5], [-0.1, 0.0]]))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DistributionError):
            JointDensity(np.array([[np.nan, 0.5], [0.25, 0.25]]))
        with pytest.raises(DistributionError):
            JointDensity(np.array([[np.inf, 0.5], [0.25, 0.25]]))

    @pytest.mark.parametrize("shape", [(2, 2), (40, 40)])
    def test_overflowing_total_is_a_distribution_error(self, shape):
        with pytest.raises(DistributionError, match="too large"):
            JointDensity(np.full(shape, 1e308))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DistributionError):
            JointDensity(np.array([0.5, 0.5]))
        with pytest.raises(DistributionError):
            JointDensity(np.ones((2, 0)))

    def test_accepts_drift_within_renorm_band(self):
        # off by 1e-10: renormalized silently
        w = np.array([[0.25, 0.25], [0.25, 0.25 + 1e-10]])
        p = JointDensity(w)
        assert abs(p.w.sum() - 1.0) <= 1e-12

    def test_rejects_mass_beyond_renorm_band(self):
        with pytest.raises(DistributionError, match="too far from 1"):
            JointDensity(np.array([[0.3, 0.3], [0.3, 0.3]]))

    def test_stored_array_is_readonly_copy(self):
        src = np.array([[0.5, 0.25], [0.125, 0.125]])
        p = JointDensity(src)
        src[0, 0] = 99.0
        assert p.w[0, 0] == 0.5
        with pytest.raises(ValueError):
            p.w[0, 0] = 0.0

    def test_min_entry_and_positivity(self):
        p = JointDensity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert p.min_entry == 0.0
        assert not p.strictly_positive


class TestMarginalAndConditional:
    def test_marginal_sums_rows_and_columns(self):
        p = JointDensity(np.array([[0.1, 0.2], [0.3, 0.4]]))
        mx = marginal(p, Axis.X)
        my = marginal(p, Axis.Y)
        npt.assert_allclose(mx.v, [0.3, 0.7], atol=1e-15)
        npt.assert_allclose(my.v, [0.4, 0.6], atol=1e-15)

    def test_conditional_rows_given_x(self):
        p = JointDensity(np.array([[0.1, 0.2], [0.3, 0.4]]))
        k = conditional(p, Direction.Y_GIVEN_X)
        npt.assert_allclose(k.k[0], [1 / 3, 2 / 3], atol=1e-15)
        npt.assert_allclose(k.k[1], [3 / 7, 4 / 7], atol=1e-15)
        assert k.defined_mask.all()

    def test_conditional_zero_slice_gets_uniform_placeholder(self):
        p = JointDensity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        k = conditional(p, Direction.X_GIVEN_Y)
        assert list(k.defined_mask) == [True, False]
        npt.assert_allclose(k.slice_pmf(1), [0.5, 0.5])
        npt.assert_allclose(k.slice_pmf(0), [1.0, 0.0])

    def test_kernel_slice_within_renorm_band_is_renormalized(self):
        # a slice off by 1e-10 is divided by its sum; the exact slice is kept
        k = np.array([[0.5, 0.5 + 1e-10], [0.25, 0.75]])
        kernel = ConditionalKernel(Direction.Y_GIVEN_X, k, np.array([True, True]))
        npt.assert_array_equal(kernel.k[0], k[0] / k[0].sum())
        assert abs(kernel.k[0].sum() - 1.0) <= 1e-12
        npt.assert_array_equal(kernel.k[1], k[1])

    def test_compose_rejects_axis_mismatch(self):
        p = JointDensity(np.array([[0.1, 0.2], [0.3, 0.4]]))
        mx = marginal(p, Axis.X)
        k_xy = conditional(p, Direction.X_GIVEN_Y)
        with pytest.raises(DimensionMismatch):
            compose(mx, k_xy)

    def test_compose_rejects_length_mismatch(self):
        m = MarginalDensity(Axis.Y, np.array([0.5, 0.5]))
        p3 = JointDensity(np.full((2, 3), 1 / 6))
        k = conditional(p3, Direction.X_GIVEN_Y)
        with pytest.raises(DimensionMismatch):
            compose(m, k)

    @settings(max_examples=60, deadline=None)
    @given(w=positive_joint_weights())
    def test_compose_recovers_joint_both_directions(self, w):
        p = JointDensity(w)
        for axis, direction in ((Axis.Y, Direction.X_GIVEN_Y), (Axis.X, Direction.Y_GIVEN_X)):
            q, drift = compose_with_drift(marginal(p, axis), conditional(p, direction))
            assert drift <= 1e-12
            npt.assert_allclose(q.w, p.w, atol=1e-14, rtol=0)

    @settings(max_examples=60, deadline=None)
    @given(w=joint_weights_with_zeros())
    def test_marginals_are_pmfs(self, w):
        p = JointDensity(w)
        for axis in (Axis.X, Axis.Y):
            m = marginal(p, axis)
            assert abs(m.v.sum() - 1.0) <= 1e-12
            assert m.v.min() >= 0.0


class TestKernelValidation:
    def test_rejects_unnormalized_slice(self):
        k = np.array([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(DistributionError):
            ConditionalKernel(Direction.Y_GIVEN_X, k, np.array([True, True]))

    @pytest.mark.parametrize(
        "entry, message",
        [
            (np.nan, "kernel contains NaN or infinite entries"),
            (np.inf, "kernel contains NaN or infinite entries"),
            (-0.5, "kernel contains negative mass"),
        ],
    )
    def test_rejects_bad_entries_with_their_message(self, entry, message):
        k = np.array([[0.5, 0.5], [0.5, 0.5]])
        k[1, 0] = entry
        with pytest.raises(DistributionError, match=f"^{message}$"):
            ConditionalKernel(Direction.Y_GIVEN_X, k, np.array([True, True]))

    @pytest.mark.parametrize("direction", list(Direction))
    def test_slices_follow_the_joint_policy(self, direction):
        # a slice is a column of X_GIVEN_Y and a row of Y_GIVEN_X; one off by
        # 1e-10 is divided by its correctly rounded total, the others kept
        k = np.array([[0.5, 0.25], [0.5 + 1e-10, 0.75]])
        k = k if direction is Direction.X_GIVEN_Y else k.T
        slices = lambda a: a.T if direction is Direction.X_GIVEN_Y else a
        kernel = ConditionalKernel(direction, k, np.array([True, True]))
        npt.assert_array_equal(slices(kernel.k)[0], slices(k)[0] / math.fsum(slices(k)[0]))
        npt.assert_array_equal(slices(kernel.k)[1], slices(k)[1])
        assert kernel.k.flags.c_contiguous and not kernel.k.flags.writeable
        bad = k.copy()
        slices(bad)[1] *= 0.5
        with pytest.raises(DistributionError, match=r"^kernel sums to 0\.5, too far from 1 to renormalize$"):
            ConditionalKernel(direction, bad, np.array([True, True]))

    def test_rejects_bad_mask_shape(self):
        k = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(DistributionError):
            ConditionalKernel(Direction.Y_GIVEN_X, k, np.array([True]))

    def test_direction_axis_bookkeeping(self):
        assert Direction.X_GIVEN_Y.conditioning_axis is Axis.Y
        assert Direction.X_GIVEN_Y.refreshed_axis is Axis.X
        assert Direction.Y_GIVEN_X.conditioning_axis is Axis.X
        assert Direction.Y_GIVEN_X.refreshed_axis is Axis.Y


class TestTarget:
    def test_make_target_bundles_consistent_pieces(self):
        p = JointDensity(gamma_weights(3, 4, seed=11))
        t = make_target(p)
        assert t.shape == (3, 4)
        assert t.strictly_positive
        npt.assert_allclose(compose(t.marg_y, t.cond_x_given_y).w, p.w, atol=1e-14)
        npt.assert_allclose(compose(t.marg_x, t.cond_y_given_x).w, p.w, atol=1e-14)

    def test_make_target_rejects_zero_cell_by_default(self):
        p = JointDensity(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(PositivityViolation):
            make_target(p)

    def test_make_target_opt_out_of_positivity(self):
        p = JointDensity(np.array([[0.5, 0.5], [0.0, 0.0]]))
        t = make_target(p, require_positive=False)
        assert not t.strictly_positive

    def test_random_target_is_deterministic_in_seed(self):
        a = random_positive_target(4, 5, seed=123)
        b = random_positive_target(4, 5, seed=123)
        c = random_positive_target(4, 5, seed=124)
        npt.assert_array_equal(a.joint.w, b.joint.w)
        assert np.max(np.abs(a.joint.w - c.joint.w)) > 1e-6

    def test_random_target_concentration_flattens(self):
        t = random_positive_target(2, 2, seed=3, concentration=1000.0)
        ratio = t.joint.w.max() / t.joint.w.min()
        assert ratio < 1.5

    def test_random_target_rejects_bad_arguments(self):
        with pytest.raises(DistributionError):
            random_positive_target(0, 3, seed=1)
        with pytest.raises(DistributionError):
            random_positive_target(2, 2, seed=1, concentration=0.0)

    def test_random_target_refuses_a_negative_seed(self):
        with pytest.raises(DistributionError, match="^seed must be nonnegative, got -1$"):
            random_positive_target(2, 2, seed=-1)

    def test_random_target_redraws_keep_their_bytes(self):
        # 6x6 at concentration 0.002, seed 1, is accepted on its 7,462nd
        # draw; the hash is of the target drawn by the unbounded loop
        w = random_positive_target(6, 6, seed=1, concentration=0.002).joint.w
        assert w.min() > 0.0
        assert hashlib.sha256(w.tobytes()).hexdigest() == (
            "cd6dc45d685ce8ea72a8142879580c7b887a4167fe7d592d9ca759ea5d0e3fc6"
        )

    def test_random_target_redraws_stop_at_the_variate_cap(self, monkeypatch):
        # the same request needs 7,462 draws of 36 variates
        monkeypatch.setattr(dist, "TARGET_MAX_VARIATES", 36 * 7462)
        random_positive_target(6, 6, seed=1, concentration=0.002)
        monkeypatch.setattr(dist, "TARGET_MAX_VARIATES", 36 * 7462 - 1)
        with pytest.raises(DistributionError, match=r"^every 6x6 draw at concentration 0\.002 in 268631 variates had a zero cell$"):
            random_positive_target(6, 6, seed=1, concentration=0.002)
        # a grid larger than the cap still gets its first draw
        monkeypatch.setattr(dist, "TARGET_MAX_VARIATES", 3)
        assert random_positive_target(2, 2, seed=1).strictly_positive

    @pytest.mark.parametrize("nx, ny, seed, conc", [(4, 4, 1, 0.001), (6, 6, 1, 0.002), (4, 5, 123, 1.0)])
    def test_random_target_equals_one_draw_at_a_time(self, nx, ny, seed, conc):
        # 4x4 at 0.001 is accepted on draw 43,742 and 6x6 at 0.002 on draw
        # 7,462; 4x5 at 1.0 on its first
        rng = np.random.default_rng(seed)
        for _ in range(max(1, dist.TARGET_MAX_VARIATES // (nx * ny))):
            w = rng.gamma(conc, size=(nx, ny))
            total = math.fsum(w.ravel().tolist())
            if total > 0.0 and np.all(w / total > 0.0):
                break
        want = JointDensity(w / total).w
        assert random_positive_target(nx, ny, seed, conc).joint.w.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "nx, ny, conc, batches, refused",
        [
            (4, 5, 1.0, [1], False),
            # 2**20 one-cell draws in 21 calls; the last takes what is left
            (1, 1, 1e-300, [2**k for k in range(20)] + [1], True),
        ],
    )
    def test_random_target_draws_the_first_alone_then_doubling_batches(
        self, monkeypatch, nx, ny, conc, batches, refused
    ):
        sizes = []
        real = np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self.rng = real(seed)

            def gamma(self, shape, size):
                sizes.append(size)
                return self.rng.gamma(shape, size=size)

        monkeypatch.setattr(dist.np.random, "default_rng", Recorder)
        if refused:
            with pytest.raises(DistributionError, match="had a zero cell$"):
                random_positive_target(nx, ny, 1, conc)
        else:
            assert random_positive_target(nx, ny, 1, conc).strictly_positive
        assert sizes == [(b, nx, ny) for b in batches]

    def test_random_target_refuses_a_hopeless_concentration(self):
        # each 100-cell draw holds a zero cell with probability about 1 - 1e-28
        with pytest.raises(DistributionError, match=r"^every 10x10 draw at concentration 0\.001 in 1048576 variates had a zero cell$"):
            random_positive_target(10, 10, seed=1, concentration=0.001)

    @pytest.mark.parametrize("nx, ny, conc", [(2, 2, 1e308), (100, 100, 1e305)])
    def test_random_target_refuses_a_draw_whose_total_overflows(self, nx, ny, conc):
        message = f"^a {nx}x{ny} draw at concentration {conc!r} has a total too large to represent$"
        with pytest.raises(DistributionError, match=message.replace("+", r"\+")):
            random_positive_target(nx, ny, seed=1, concentration=conc)

    def test_independence_target_is_outer_product(self):
        px = MarginalDensity(Axis.X, np.array([0.25, 0.75]))
        py = MarginalDensity(Axis.Y, np.array([0.5, 0.25, 0.25]))
        t = independence_target(px, py)
        npt.assert_allclose(t.joint.w, np.outer(px.v, py.v), atol=1e-15)
        # conditional slices all equal the opposite marginal
        for j in range(3):
            npt.assert_allclose(t.cond_x_given_y.slice_pmf(j), px.v, atol=1e-15)

    def test_independence_target_needs_positive_marginals(self):
        px = MarginalDensity(Axis.X, np.array([1.0, 0.0]))
        py = MarginalDensity(Axis.Y, np.array([0.5, 0.5]))
        with pytest.raises(PositivityViolation):
            independence_target(px, py)

    def test_independence_target_checks_axes(self):
        m = MarginalDensity(Axis.X, np.array([0.5, 0.5]))
        with pytest.raises(DimensionMismatch):
            independence_target(m, m)



def zero_row_and_column_joint() -> JointDensity:
    """A 3x3 joint whose last row and middle column carry no mass."""
    return JointDensity(np.array([[0.25, 0.0, 0.25], [0.25, 0.0, 0.25], [0.0, 0.0, 0.0]]))


def derivation_cases() -> dict[str, tuple[JointDensity, bool]]:
    """(joint, require_positive) for each joint the derived fields are checked on."""
    return {
        "5x7": (JointDensity(gamma_weights(5, 7, seed=21)), True),
        "1x6": (JointDensity(gamma_weights(1, 6, seed=22)), True),
        "6x1": (JointDensity(gamma_weights(6, 1, seed=23)), True),
        "subnormal-6x6": (random_positive_target(6, 6, 1, 0.002).joint, True),
        "zero-row-and-column": (zero_row_and_column_joint(), False),
    }


def assert_fields_derive_from_joint(t, p: JointDensity) -> None:
    """Every derived field of `t` equals what the joint gives, bit for bit,
    and each marginal composed with its kernel reproduces the joint."""
    assert t.joint is p
    for got, direction in ((t.cond_x_given_y, Direction.X_GIVEN_Y), (t.cond_y_given_x, Direction.Y_GIVEN_X)):
        want = conditional(p, direction)
        assert got.direction is direction
        assert got.k.tobytes() == want.k.tobytes()
        assert got.defined_mask.tobytes() == want.defined_mask.tobytes()
    for got, axis in ((t.marg_x, Axis.X), (t.marg_y, Axis.Y)):
        assert got.axis is axis
        assert got.v.tobytes() == marginal(p, axis).v.tobytes()
    assert t.strictly_positive is p.strictly_positive
    for m, k in ((t.marg_y, t.cond_x_given_y), (t.marg_x, t.cond_y_given_x)):
        npt.assert_allclose(compose(m, k).w, p.w, atol=1e-12, rtol=0)


class TestTargetDerivedFromJoint:
    @pytest.mark.parametrize("case", list(derivation_cases()))
    def test_fields_equal_what_the_joint_gives(self, case):
        p, require_positive = derivation_cases()[case]
        assert_fields_derive_from_joint(make_target(p, require_positive=require_positive), p)
        assert_fields_derive_from_joint(dist.Target(p), p)

    def test_subnormal_case_holds_a_subnormal_cell(self):
        p, _ = derivation_cases()["subnormal-6x6"]
        assert 0.0 < p.min_entry < np.finfo(np.float64).tiny

    def test_defined_mask_marks_the_zero_slices(self):
        t = make_target(zero_row_and_column_joint(), require_positive=False)
        assert not t.strictly_positive
        # X_GIVEN_Y conditions on y: the middle column is undefined
        assert t.cond_x_given_y.defined_mask.tolist() == [True, False, True]
        # Y_GIVEN_X conditions on x: the last row is undefined
        assert t.cond_y_given_x.defined_mask.tolist() == [True, True, False]
        npt.assert_array_equal(t.cond_x_given_y.slice_pmf(1), np.full(3, 1.0 / 3.0))
        npt.assert_array_equal(t.cond_y_given_x.slice_pmf(2), np.full(3, 1.0 / 3.0))

    @settings(max_examples=60, deadline=None)
    @given(w=joint_weights_with_zeros())
    def test_fields_derive_from_any_joint(self, w):
        p = JointDensity(w)
        assert_fields_derive_from_joint(make_target(p, require_positive=False), p)

    @pytest.mark.parametrize(
        "field", ["cond_x_given_y", "cond_y_given_x", "marg_x", "marg_y", "strictly_positive"]
    )
    def test_constructor_takes_only_the_joint(self, field):
        p = JointDensity(gamma_weights(3, 4, seed=24))
        derived = getattr(make_target(p), field)
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{field}'"):
            dist.Target(p, **{field: derived})

    def test_zero_cell_refusal_keeps_its_message(self):
        with pytest.raises(
            PositivityViolation,
            match=r"^target has a zero cell \(min entry 0\.0\); strict positivity is required$",
        ):
            make_target(zero_row_and_column_joint())

class TestJsonInterchange:
    def test_roundtrip_dict(self):
        p = JointDensity(gamma_weights(2, 3, seed=5))
        obj = joint_to_json_dict(p)
        assert obj["nx"] == 2 and obj["ny"] == 3
        q = joint_from_json_dict(obj)
        npt.assert_allclose(q.w, p.w, atol=1e-15)

    def test_load_normalizes_unscaled_weights(self):
        obj = {"nx": 2, "ny": 2, "w": [[4.0, 1.0], [1.0, 4.0]]}
        p = joint_from_json_dict(obj)
        npt.assert_allclose(p.w, [[0.4, 0.1], [0.1, 0.4]], atol=1e-15)

    @pytest.mark.parametrize(
        "obj",
        [
            {"nx": 2, "ny": 2},
            {"nx": 2, "ny": 2, "w": [[1.0, 1.0]]},
            {"nx": 0, "ny": 2, "w": []},
            {"nx": 2, "ny": 2, "w": [[1.0, -1.0], [1.0, 1.0]]},
            {"nx": 2, "ny": 2, "w": [[0.0, 0.0], [0.0, 0.0]]},
            {"nx": 2, "ny": 2, "w": [["a", "b"], ["c", "d"]]},
            [1, 2, 3],
        ],
    )
    def test_load_rejects_malformed(self, obj):
        with pytest.raises(DistributionError):
            joint_from_json_dict(obj)

    @pytest.mark.parametrize(
        "text",
        [
            '{"nx": 2, "ny": 2, "w": [[NaN, 1.0], [1.0, 1.0]]}',
            '{"nx": 2, "ny": 2, "w": [[Infinity, 1.0], [1.0, 1.0]]}',
            '{"nx": 2, "ny": 2, "w": [[Infinity, 1.0], [-Infinity, 1.0]]}',
            '{"nx": 2, "ny": 2, "w": [[1e308, 1e308], [1, 1]]}',
            json.dumps({"nx": 40, "ny": 40, "w": [[1e308] * 40] * 40}),
        ],
        ids=["nan", "infinity", "both-infinities", "overflow", "overflow-40x40"],
    )
    def test_load_rejects_non_finite_and_overflowing_weights(self, text):
        # json.load accepts NaN, Infinity and -Infinity, so these are real
        # outside input
        with pytest.raises(DistributionError):
            joint_from_json_dict(json.loads(text))

    def test_load_refuses_an_integer_beyond_float_range(self):
        w = [[10**400, 1]]
        with pytest.raises(DistributionError, match="^the w field holds a number too large to represent$"):
            joint_from_json_dict({"nx": 1, "ny": 2, "w": w})

    @pytest.mark.parametrize(
        "w",
        [[[True, False]], [[True, True]], [[1, True]], [["0.5", "0.5"]], [[0.5, "1"]], [[None, 1.0]]],
        ids=["booleans", "true-true", "int-and-bool", "strings", "float-and-string", "null"],
    )
    def test_load_refuses_entries_that_are_not_json_numbers(self, w):
        # NumPy reads each of these as floats (null as NaN)
        with pytest.raises(DistributionError, match="^the w field holds an entry that is not a JSON number$"):
            joint_from_json_dict({"nx": 1, "ny": 2, "w": w})

    def test_load_refuses_json_nested_past_the_recursion_limit(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        with pytest.raises(DistributionError, match="nests its JSON too deeply to read$"):
            load_joint(str(path))

    def test_file_roundtrip_is_stable(self, tmp_path):
        p = JointDensity(gamma_weights(3, 2, seed=9))
        path = tmp_path / "t.json"
        save_joint(str(path), p)
        q = load_joint(str(path))
        npt.assert_array_equal(q.w, p.w)
        save_joint(str(path), q)
        first = path.read_text()
        save_joint(str(path), load_joint(str(path)))
        assert path.read_text() == first

    def test_saved_file_is_valid_json(self, tmp_path):
        p = JointDensity(np.full((2, 2), 0.25))
        path = tmp_path / "u.json"
        save_joint(str(path), p)
        obj = json.loads(path.read_text())
        assert obj["w"] == [[0.25, 0.25], [0.25, 0.25]]

    @pytest.mark.parametrize(
        "w",
        [
            *(gamma_weights(nx, ny, seed=nx + ny) for nx, ny in ((1, 1), (1, 300), (300, 1), (4, 7))),
            np.array([[1e-320, 0.5], [0.25, 0.25]]),
        ],
        ids=["1x1", "1x300", "300x1", "4x7", "subnormal"],
    )
    def test_saved_file_is_json_dumps_indent_1(self, tmp_path, w):
        p = JointDensity(w)
        path = tmp_path / "t.json"
        save_joint(str(path), p)
        expected = json.dumps(dict(sorted(joint_to_json_dict(p).items())), indent=1) + "\n"
        assert path.read_text(encoding="utf-8") == expected

    def test_save_holds_one_row_at_a_time(self, tmp_path):
        p = JointDensity(gamma_weights(300, 300, seed=1))
        path = tmp_path / "t.json"
        tracemalloc.start()
        try:
            save_joint(str(path), p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 10
