"""`stable_sum` and `stable_row_sums` against `math.fsum`: equal results on
every input, the same exceptions, and byte-identical CLI outputs when fsum
does all the summing."""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import daflow._numeric as numeric
from daflow._numeric import (
    BINNED_MAX_MAGNITUDE,
    BINNED_MIN_ENTRIES,
    EXTRACTION_MAX_PASSES,
    ROW_BINNED_PASS_ENTRIES,
    stable_row_sums,
    stable_sum,
)
from daflow.cli import main
from daflow.diagnostics import DEFAULT_CHECKS

EDGE_SIZES = (BINNED_MIN_ENTRIES - 1, BINNED_MIN_ENTRIES, BINNED_MIN_ENTRIES + 1)
# rows of up to 126 entries are split at sigma = 2**(e + 7), longer ones at
# 2**(e + 8) or more, so the bound n * 2**e on the row totals of the
# extracted parts comes closest to sigma at 126
ROW_LENGTH = 128
# row lengths on both sides of each length at which stable_row_sums routes
# or splits differently; the row counts drawn with them cross the stack size
# BINNED_MIN_ENTRIES and the pass size
ROW_EDGES = tuple(
    sorted(
        b + d
        for b in (ROW_LENGTH - 1, BINNED_MIN_ENTRIES, ROW_BINNED_PASS_ENTRIES // 2)
        for d in (-1, 0, 1)
    )
)


def load_bench_layers():
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# its fsum_body is the summation stable_sum must reproduce: fsum over the
# entries in row-major order, as stable_sum did before binning
bench = load_bench_layers()


def assert_matches_fsum(a) -> None:
    try:
        expected = bench.fsum_body(a)
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e)):
            stable_sum(a)
        return
    got = stable_sum(a)
    assert type(got) is float
    if math.isnan(expected):
        assert math.isnan(got)
        return
    assert got == expected, (got, expected)
    assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def assert_rows_match_fsum(a: np.ndarray) -> None:
    """stable_row_sums(a) is fsum over each row, or raises the exception of
    the first row whose fsum raises."""
    expected = []
    for row in a.tolist():
        try:
            expected.append(math.fsum(row))
        except (ValueError, OverflowError) as e:
            with pytest.raises(type(e)):
                stable_row_sums(a)
            return
    got = stable_row_sums(a)
    assert len(got) == len(expected)
    for g, x in zip(got, expected):
        assert type(g) is float
        if math.isnan(x):
            assert math.isnan(g)
        else:
            assert g == x and math.copysign(1.0, g) == math.copysign(1.0, x), (g, x)


def pad(values, size: int) -> np.ndarray:
    """`values` followed by zeros, `size` entries in all."""
    out = np.zeros(size)
    out[: len(values)] = values
    return out


class _FsumCounter:
    """Stands in for the `math` module of `daflow._numeric`, recording how
    many values each `fsum` call receives."""

    def __init__(self) -> None:
        self.lengths: list[int] = []

    def fsum(self, values):
        self.lengths.append(len(values))
        return math.fsum(values)


@st.composite
def spread_arrays(draw) -> np.ndarray:
    """Arrays at and above the binned size threshold, with seeded mantissas
    over a drawn exponent window anywhere from 2**-1074 to 2**989, in one of
    four shapes: plain, cancelling to exactly 0.0, summing to a half-way
    tie, or carrying hypothesis-chosen floats at random places."""
    size = draw(st.sampled_from(EDGE_SIZES) | st.integers(BINNED_MIN_ENTRIES, 4 * BINNED_MIN_ENTRIES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1074, 989))
    high = draw(st.integers(low, min(low + draw(st.integers(0, 2100)), 989)))
    kind = draw(st.sampled_from(["plain", "cancel", "tie", "specials"]))
    exps = rng.integers(low, high + 1, size)
    a = np.ldexp(rng.uniform(-1.0, 1.0, size), exps)
    if kind == "cancel":
        half = a[: size // 2]
        a = np.concatenate([half, -half, np.zeros(size % 2)])
        rng.shuffle(a)
    elif kind == "tie":
        # 1 + u/2 (u the unit in the last place of 1) in many small pieces,
        # optionally nudged by the smallest subnormal off the tie
        pieces = draw(st.integers(1, size - 1))
        a = pad([1.0] + [2.0**-53 / pieces] * pieces, size)
        a[-1] += draw(st.sampled_from([0.0, 5e-324, -5e-324]))
        rng.shuffle(a)
    elif kind == "specials":
        finite = st.floats(
            min_value=-np.nextafter(BINNED_MAX_MAGNITUDE, 0.0),
            max_value=np.nextafter(BINNED_MAX_MAGNITUDE, 0.0),
            allow_nan=False,
        )
        for value in draw(st.lists(finite, min_size=1, max_size=8)):
            a[rng.integers(size)] = value
    return a


class TestStableSumMatchesFsum:
    @settings(max_examples=300, deadline=None)
    @given(a=spread_arrays())
    def test_equal_to_fsum(self, a):
        assert_matches_fsum(a)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_threshold_edges(self, size):
        rng = np.random.default_rng(size)
        assert_matches_fsum(rng.random(size) / size)
        assert_matches_fsum(rng.standard_normal(size) * 2.0 ** rng.integers(-1074, 990, size))

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_cancellation_to_exact_zero(self, size):
        rng = np.random.default_rng(size)
        half = rng.standard_normal(size // 2) * 2.0 ** rng.integers(-200, 200, size // 2)
        a = np.concatenate([half, -half[::-1], np.zeros(size % 2)])
        assert stable_sum(a) == 0.0 and math.copysign(1.0, stable_sum(a)) == 1.0
        assert_matches_fsum(a)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, 2.0**-53], 1.0),
            ([1.0, 2.0**-53, 5e-324], 1.0 + 2.0**-52),
            ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
            ([-1.0, -(2.0**-53)], -1.0),
            ([2.0**988, 2.0**935], 2.0**988),
            ([2.0**988, 2.0**935, 2.0**-1074], 2.0**988 + 2.0**936),
        ],
    )
    def test_half_way_ties_round_to_even(self, values, expected):
        for size in EDGE_SIZES:
            a = pad(values, size)
            assert stable_sum(a) == expected
            assert_matches_fsum(a)

    def test_subnormals(self):
        for size in EDGE_SIZES:
            assert stable_sum(np.full(size, 5e-324)) == size * 5e-324
            rng = np.random.default_rng(size)
            assert_matches_fsum(np.ldexp(rng.integers(-2**20, 2**20, size).astype(float), -1074))
            assert_matches_fsum(np.ldexp(rng.uniform(-1.0, 1.0, size), rng.integers(-1074, -1020, size)))

    def test_all_zero_and_single_entry(self):
        for size in EDGE_SIZES:
            assert_matches_fsum(np.zeros(size))
            assert_matches_fsum(np.full(size, -0.0))
            for value in (1.5, -(2.0**-1074), 2.0**989):
                assert_matches_fsum(pad([value], size))
        assert_matches_fsum(np.array([]))
        assert_matches_fsum(np.array(3.25))
        assert_matches_fsum(np.array([7.0]))

    def test_non_contiguous_two_dimensional(self):
        rng = np.random.default_rng(3)
        shape = (2 * BINNED_MIN_ENTRIES, 7)
        base = rng.standard_normal(shape) * 2.0 ** rng.integers(-60, 60, shape)
        for view in (base[::2, ::3], base.T, base[1:, 1:], np.asfortranarray(base)):
            assert view.size >= BINNED_MIN_ENTRIES
            assert_matches_fsum(view)
        assert_matches_fsum(base[: BINNED_MIN_ENTRIES // 2, :].astype(np.float32))

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_non_finite_and_huge_entries(self, size):
        assert math.isnan(stable_sum(pad([1.0, math.nan], size)))
        assert stable_sum(pad([1.0, math.inf], size)) == math.inf
        assert stable_sum(pad([-math.inf, 3.0], size)) == -math.inf
        for values in (
            [math.nan],
            [1.0, math.inf],
            [math.inf, math.nan],
            [math.inf, -math.inf],
            [-math.inf, 2.0, math.inf],
            [2.0**1023, 2.0**1023, -(2.0**1023)],
            [2.0**1023, -(2.0**1023), 2.0**1023],
            [BINNED_MAX_MAGNITUDE, 1.0],
            [-BINNED_MAX_MAGNITUDE, 2.0**-1074],
            [1e308] * 3,
            [2.0**1022] * 4,
            [2.0**1022] * 3 + [-(2.0**1000)],
        ):
            assert_matches_fsum(pad(values, size))
        with pytest.raises(ValueError):
            stable_sum(pad([math.inf, -math.inf], size))
        with pytest.raises(OverflowError):
            stable_sum(pad([2.0**1023, 2.0**1023, -(2.0**1023)], size))
        with pytest.raises(OverflowError):
            stable_sum(pad([2.0**1022] * 4, size))


class TestRouting:
    """Which inputs the extraction takes: fsum then sees at most a few exact
    parts instead of every entry."""

    def sums_seen(self, monkeypatch, a) -> list[int]:
        counter = _FsumCounter()
        with monkeypatch.context() as m:
            m.setattr("daflow._numeric.math", counter)
            stable_sum(a)
        return counter.lengths

    def test_small_arrays_go_to_fsum(self, monkeypatch):
        size = BINNED_MIN_ENTRIES - 1
        assert self.sums_seen(monkeypatch, np.ones(size)) == [size]

    @pytest.mark.parametrize("size", [BINNED_MIN_ENTRIES, 20_000])
    def test_finite_arrays_are_extracted(self, monkeypatch, size):
        rng = np.random.default_rng(size)
        seen = self.sums_seen(monkeypatch, rng.random(size))
        assert all(k <= EXTRACTION_MAX_PASSES for k in seen)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, BINNED_MAX_MAGNITUDE])
    def test_non_finite_or_huge_arrays_go_to_fsum(self, monkeypatch, value):
        a = pad([1.0, value], BINNED_MIN_ENTRIES + 1)
        try:
            lengths = self.sums_seen(monkeypatch, a)
        except (ValueError, OverflowError):
            return
        assert lengths == [a.size]

    def test_arrays_past_the_exactness_bound_go_to_fsum(self, monkeypatch):
        # a real array of 2**26 entries takes 512 MiB, so lower the bound
        monkeypatch.setattr(numeric, "BINNED_MAX_ENTRIES", BINNED_MIN_ENTRIES + 2)
        assert self.sums_seen(monkeypatch, np.ones(BINNED_MIN_ENTRIES + 1)) != [BINNED_MIN_ENTRIES + 1]
        assert self.sums_seen(monkeypatch, np.ones(BINNED_MIN_ENTRIES + 2)) == [BINNED_MIN_ENTRIES + 2]


ROW_SPECIALS = (math.nan, math.inf, -math.inf, BINNED_MAX_MAGNITUDE, -(2.0**1000), 2.0**1023)


@st.composite
def row_stacks(draw) -> np.ndarray:
    """Stacks of 1 up to one pass plus two rows, at and around the routing
    lengths, with seeded mantissas over a drawn exponent window. Each row is
    plain, cancels to exactly 0.0, is subnormal, or carries NaN, an infinity
    or a magnitude of 2**990 or more at random places."""
    n = draw(st.sampled_from(ROW_EDGES) | st.integers(1, 3 * ROW_LENGTH))
    rows = draw(st.integers(1, ROW_BINNED_PASS_ENTRIES // n + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1074, 989))
    high = draw(st.integers(low, min(low + draw(st.integers(0, 2100)), 989)))
    a = np.ldexp(rng.uniform(-1.0, 1.0, (rows, n)), rng.integers(low, high + 1, (rows, n)))
    mix = draw(st.sampled_from([(1, 0, 0, 0), (4, 2, 2, 1), (1, 1, 1, 1), (0, 0, 0, 1)]))
    kinds = rng.choice(4, size=rows, p=np.array(mix) / sum(mix))
    for r, kind in enumerate(kinds):
        if kind == 1:
            half = a[r, : n // 2]
            row = np.concatenate([half, -half, np.zeros(n % 2)])
            rng.shuffle(row)
            a[r] = row
        elif kind == 2:
            a[r] = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, -1020, n))
        elif kind == 3:
            for _ in range(rng.integers(1, 3)):
                a[r, rng.integers(n)] = ROW_SPECIALS[rng.integers(len(ROW_SPECIALS))]
    return a


class TestStableRowSums:
    @settings(max_examples=300, deadline=None)
    @given(a=row_stacks())
    def test_equal_to_fsum_per_row(self, a):
        assert_rows_match_fsum(a)

    @pytest.mark.parametrize("n", ROW_EDGES)
    def test_routing_edges(self, n):
        rng = np.random.default_rng(n)
        for rows in (1, 2, BINNED_MIN_ENTRIES // n + 1, ROW_BINNED_PASS_ENTRIES // n + 1):
            assert_rows_match_fsum(rng.random((rows, n)) / n)
            assert_rows_match_fsum(rng.standard_normal((rows, n)) * 2.0 ** rng.integers(-1074, 990, (rows, n)))

    def test_cancellation_subnormals_and_zeros(self):
        rng = np.random.default_rng(5)
        n = 2 * ROW_LENGTH
        half = rng.standard_normal((6, n // 2)) * 2.0 ** rng.integers(-200, 200, (6, n // 2))
        a = np.concatenate([half, -half[:, ::-1]], axis=1)
        a[1] = np.ldexp(rng.integers(-2**20, 2**20, n).astype(float), -1074)
        a[2] = 5e-324
        a[3] = -0.0
        a[4] = 0.0
        assert stable_row_sums(a)[0] == 0.0
        assert stable_row_sums(a)[2] == n * 5e-324
        assert_rows_match_fsum(a)

    def test_special_rows_raise_in_row_order(self):
        n = 2 * ROW_LENGTH
        a = np.full((8, n), 0.5)
        a[5, :2] = [math.inf, -math.inf]
        a[2, :3] = [2.0**1023, 2.0**1023, -(2.0**1023)]
        with pytest.raises(OverflowError):
            stable_row_sums(a)
        a[2] = 0.5
        with pytest.raises(ValueError):
            stable_row_sums(a)
        a[5, 1] = 1.0
        a[6, 0] = math.nan
        got = stable_row_sums(a)
        assert got[5] == math.inf and math.isnan(got[6])
        assert got[:5] == [n * 0.5] * 5 and got[7] == n * 0.5

    def test_non_contiguous_and_float32(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((12, 3 * ROW_LENGTH)) * 2.0 ** rng.integers(-60, 60, (12, 384))
        for view in (base[::2, ::3], base[:, 1:], np.asfortranarray(base), base.astype(np.float32)):
            assert_rows_match_fsum(view)
        assert stable_row_sums(np.zeros((0, 5))) == []
        assert stable_row_sums(np.zeros((3, 0))) == [0.0] * 3


def stacks_extracted(monkeypatch, call) -> list[tuple[int, int]]:
    """The shapes of the stacks `call()` hands to the extraction."""
    seen = []
    extract = numeric._extracted_row_sums
    with monkeypatch.context() as m:
        m.setattr(numeric, "_extracted_row_sums", lambda a: seen.append(a.shape) or extract(a))
        call()
    return seen


class TestRowRouting:
    """Which rows the extraction takes: an extracted row's fsum, if any, sees
    only its exact parts, a row summed by fsum sees all its entries."""

    def sums_seen(self, monkeypatch, a) -> list[int]:
        counter = _FsumCounter()
        with monkeypatch.context() as m:
            m.setattr("daflow._numeric.math", counter)
            stable_row_sums(a)
        return counter.lengths

    def test_stable_sum_is_the_one_row_stack(self, monkeypatch):
        a = np.random.default_rng(1).random(20_000)
        expected = stable_row_sums(a[None])
        assert stacks_extracted(monkeypatch, lambda: stable_sum(a)) == [(1, a.size)]
        assert stable_sum(a) == expected[0]
        assert stacks_extracted(monkeypatch, lambda: stable_sum(a.reshape(100, 200).T)) == [(1, a.size)]

    def test_rows_too_long_to_share_a_pass_go_one_at_a_time(self, monkeypatch):
        n = ROW_BINNED_PASS_ENTRIES // 2 + 1
        assert stacks_extracted(monkeypatch, lambda: stable_row_sums(np.ones((3, n)))) == [(1, n)] * 3
        assert stacks_extracted(monkeypatch, lambda: stable_row_sums(np.ones((3, n - 1)))) == [
            (2, n - 1), (1, n - 1)
        ]

    def test_small_stacks_go_to_fsum(self, monkeypatch):
        n = ROW_LENGTH - 1
        rows = BINNED_MIN_ENTRIES // n
        assert rows * n < BINNED_MIN_ENTRIES
        assert self.sums_seen(monkeypatch, np.ones((rows, n))) == [n] * rows
        assert self.sums_seen(monkeypatch, np.ones((1, BINNED_MIN_ENTRIES - 1))) == [BINNED_MIN_ENTRIES - 1]
        # the same short rows, stacked past BINNED_MIN_ENTRIES, are extracted
        assert self.sums_seen(monkeypatch, np.ones((rows + 1, n))) == []

    @pytest.mark.parametrize("rows", [BINNED_MIN_ENTRIES // 1000 + 1, 3 * ROW_BINNED_PASS_ENTRIES // 1000])
    def test_long_rows_are_extracted(self, monkeypatch, rows):
        a = np.random.default_rng(rows).random((rows, 1000))
        seen = self.sums_seen(monkeypatch, a)
        assert len(seen) <= rows and all(k <= EXTRACTION_MAX_PASSES for k in seen)

    @pytest.mark.parametrize("value", ROW_SPECIALS)
    def test_only_a_special_row_leaves_the_extraction(self, monkeypatch, value):
        n = 2 * ROW_LENGTH
        a = np.random.default_rng(2).random((10, n))
        a[3, 7] = value
        seen = self.sums_seen(monkeypatch, a)
        assert seen.count(n) == 1 and all(k <= EXTRACTION_MAX_PASSES for k in seen if k != n)


class TestExtraction:
    """The extraction kernel's passes, its early decisions and its fsum
    finish."""

    def settled_calls(self, monkeypatch, a) -> list[tuple[list[int], list[bool], list[bool]]]:
        """stable_row_sums(a), recording for each `_settled` call the
        nonzero parts per row, whether remainders were left, and the verdict."""
        calls = []
        settled = numeric._settled

        def spy(parts, bound):
            total, verdict = settled(parts, bound)
            nonzero = sum(part != 0.0 for part in parts)
            calls.append((nonzero.tolist(), (bound > 0.0).tolist(), verdict.tolist()))
            return total, verdict

        with monkeypatch.context() as m:
            m.setattr(numeric, "_settled", spy)
            assert_rows_match_fsum(a)
        return calls

    @pytest.mark.parametrize("n", [64, ROW_LENGTH - 2, 1000])
    def test_stacks_around_the_pass_size(self, monkeypatch, n):
        rng = np.random.default_rng(n)
        per_pass = ROW_BINNED_PASS_ENTRIES // n
        for rows in (per_pass - 1, per_pass, per_pass + 1):
            # rows of different scales, so a row summed in another's pass shows
            a = rng.random((rows, n)) * 2.0 ** rng.integers(-40, 40, (rows, 1))
            assert_rows_match_fsum(a)
            shapes = stacks_extracted(monkeypatch, lambda: stable_row_sums(a))
            assert shapes == ([(rows, n)] if rows <= per_pass else [(per_pass, n), (1, n)])

    @pytest.mark.parametrize("n", [ROW_LENGTH - 2, ROW_LENGTH - 1, BINNED_MIN_ENTRIES - 2, BINNED_MIN_ENTRIES - 1])
    def test_tightest_row_totals(self, n):
        # entries of one sign just below a power of two: their extracted parts
        # total nearly n times it, at n = 2**s - 2 all but the splitting
        # constant 2**(e + s), so one bit less of it would round them
        rng = np.random.default_rng(n)
        rows = BINNED_MIN_ENTRIES // n + 2
        for scale in (-1.0, 2.0**-40, -(2.0**300)):
            assert_rows_match_fsum(scale * (1.0 - rng.uniform(0.0, 2.0**-20, (rows, n))))

    def test_rows_of_one_two_and_three_parts(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = BINNED_MIN_ENTRIES // 3 + 1
        a = np.empty((3, n))
        a[0] = 0.75
        # one binade of 53-bit mantissas: the first pass leaves their low bits
        a[1] = rng.uniform(0.5, 1.0, n)
        # pairs that cancel, and entries 2**-60 below them that the sum is
        # made of, which two parts do not settle
        x = rng.uniform(0.5, 1.0, n // 4) * 2.0 ** rng.integers(-30, 0, n // 4)
        a[2] = np.concatenate([x, -x, rng.uniform(0.5, 1.0, n - 2 * len(x)) * 2.0**-60])
        calls = self.settled_calls(monkeypatch, a)
        # after two passes only the third row has remainders, and is undecided
        assert calls[0] == ([1, 2, 2], [False, False, True], [True, True, False])
        assert calls[-1][0] == [1, 2, 3] and calls[-1][1] == [False] * 3
        counter = _FsumCounter()
        with monkeypatch.context() as m:
            m.setattr("daflow._numeric.math", counter)
            stable_row_sums(a)
        assert all(k <= 3 for k in counter.lengths)

    def test_negative_zero_rows(self):
        n = 300
        a = np.full((6, n), -0.0)
        a[2] = np.random.default_rng(6).random(n)
        a[4, ::3] = [5e-324, -5e-324] * 50
        for stack in (a, a[[0, 1, 3, 5]], a[:1]):
            got = stable_row_sums(np.repeat(stack, 4, axis=1))
            assert all(math.copysign(1.0, g) == 1.0 for g in got)
            assert_rows_match_fsum(np.repeat(stack, 4, axis=1))
        assert stable_sum(np.full(2 * BINNED_MIN_ENTRIES, -0.0)) == 0.0
        assert math.copysign(1.0, stable_sum(np.full(2 * BINNED_MIN_ENTRIES, -0.0))) == 1.0

    def test_wide_rows_settle_in_two_passes(self, monkeypatch):
        # like the divergence terms of `run` on a 200 x 200 grid from a
        # corner cell: magnitudes over 500 binades, the sum near the largest
        rng = np.random.default_rng(7)
        a = np.ldexp(rng.uniform(0.5, 1.0, (2, 4000)), -rng.integers(0, 500, (2, 4000)))
        calls = self.settled_calls(monkeypatch, a)
        assert calls == [([2, 2], [True] * 2, [True] * 2)]

    def test_half_way_points_are_never_settled_early(self):
        # a power of two in pieces, an offset at or near half the gap above
        # or below it, and a spread of tiny entries whose sign decides
        rng = np.random.default_rng(10)
        n = 1500
        for base_exp in (0, -700, 800):
            base = 2.0**base_exp
            up = math.ulp(base)
            a = np.zeros((48, n))
            for r, (sign, gap, frac) in enumerate(
                (s, g, f) for s in (-1.0, 1.0) for g in (up, up / 2) for f in (0.5, 0.5 - 2.0**-30, 0.5 + 2.0**-30, 0.25, 1.0, 0.0)
            ):
                k = int(rng.integers(1, 300))
                tiny = rng.choice([-1.0, 1.0], k) * np.ldexp(rng.uniform(0.5, 1.0, k), rng.integers(-1074, -60, k) + base_exp)
                row = np.concatenate([[base / 2, base / 4, base / 4, sign * gap * frac], tiny, np.zeros(n - 4 - k)])
                rng.shuffle(row)
                a[r] = -row if r % 2 else row
            assert_rows_match_fsum(a)

    def test_full_exponent_range_row_is_finished_by_fsum(self, monkeypatch):
        # pairs that cancel over every exponent, so no pass decides the sum
        rng = np.random.default_rng(9)
        n = 2000
        x = np.ldexp(rng.uniform(0.5, 1.0, n // 2), rng.integers(-1074, 990, n // 2))
        a = np.concatenate([x, -x])
        a[0] = 2.0**-1000
        a = a[rng.permutation(n)][None]
        expected = math.fsum(a[0].tolist())
        for passes in (EXTRACTION_MAX_PASSES, 100):
            counter = _FsumCounter()
            with monkeypatch.context() as m:
                m.setattr(numeric, "EXTRACTION_MAX_PASSES", passes)
                m.setattr("daflow._numeric.math", counter)
                assert stable_row_sums(a) == [expected]
            if passes == EXTRACTION_MAX_PASSES:
                # the parts and the remainders left, fewer than all entries
                (seen,) = counter.lengths
                assert passes < seen < passes + n
            else:
                # without the cap the remainders run out: fsum sees parts only
                assert all(k <= passes for k in counter.lengths)


def cli_outputs(workdir, monkeypatch, capsys) -> dict:
    """Every file, stdout, stderr and exit code of gen, verify with balance
    and reconstruction at 60x60, 90x90 and 120x120, verify with lemma3 over
    30 half-steps at 60x60, and run at 50x50, run in `workdir` with relative
    paths."""
    monkeypatch.chdir(workdir)
    out = {}
    for n, seed in ((60, 11), (90, 14), (120, 12), (50, 13)):
        target = f"t{n}.json"
        out[f"gen{n}"] = main(["gen", "--nx", str(n), "--ny", str(n), "--seed", str(seed), "--out", target])
        if n == 50:
            for fmt in ("csv", "json"):
                prefix = f"r{n}"
                out[f"run{n}{fmt}"] = main(
                    ["run", "--target", target, "--p0", "degenerate:0,0", "--format", fmt,
                     "--out-prefix", prefix]
                )
        else:
            out[f"verify{n}"] = main(
                ["verify", "--target", target, "--checks", "balance,reconstruction",
                 "--out-prefix", f"v{n}"]
            )
        if n == 60:
            out[f"lemma3{n}"] = main(
                ["verify", "--target", target, "--checks", "lemma3", "--eps", "1e-300", "--max-steps", "30",
                 "--out-prefix", f"l{n}"]
            )
        out[f"std{n}"] = capsys.readouterr()
    for path in sorted(workdir.iterdir()):
        out[path.name] = path.read_bytes()
    return out


class TestDifferentialOutputs:
    def test_cli_outputs_match_the_fsum_body(self, tmp_path, monkeypatch, capsys):
        for side in ("binned", "fsum"):
            (tmp_path / side).mkdir()
        binned = cli_outputs(tmp_path / "binned", monkeypatch, capsys)
        # every module that imported stable_sum gets the old fsum body
        sizes = []

        def fsum_body(a):
            sizes.append(np.size(a))
            return bench.fsum_body(a)

        with bench.stable_sum_replaced(fsum_body) as users:
            reference = cli_outputs(tmp_path / "fsum", monkeypatch, capsys)
        expected = {"daflow._numeric", "daflow.dist", "daflow.engine", "daflow.metrics", "daflow.diagnostics"}
        assert expected <= set(users)
        assert numeric.stable_sum is stable_sum
        assert max(sizes) == 120 * 120 and sum(s >= BINNED_MIN_ENTRIES for s in sizes) > 500
        assert binned.keys() == reference.keys()
        for key in binned:
            assert binned[key] == reference[key], key
        assert all(binned[f"verify{n}"] == 0 for n in (60, 90, 120)) and binned["lemma360"] == 0
        assert binned["run50csv"] == 0


# ROADMAP aim 1's layers, under the names of the benchmark's per-layer metrics
AIM1_LAYERS = {
    "dist.validate", "numeric.stable_sum", "numeric.stable_row_sums", "dist.compose", "dist.save_joint",
    "metrics.relative_entropy", "engine.half_step", "engine.run", "engine.export",
    *(f"diagnostics.{check}" for check in DEFAULT_CHECKS), "diagnostics.export",
    "sampler.run_chains", "sampler.draws_to_csv", "cli.gen", "cli.run", "cli.verify", "cli.sample",
}
# one size per layer, small enough that every case takes milliseconds
TINY_SIZES = {
    "dist.validate": {"n": 3},
    "numeric.stable_sum": {"entries": 5, "data": "terms"},
    "numeric.stable_row_sums": {"rows": 2, "entries": 4},
    "dist.compose": {"n": 3},
    "dist.save_joint": {"n": 3},
    "metrics.relative_entropy": {"n": 3},
    "engine.half_step": {"n": 3},
    "engine.run": {"n": 4, "beta": 1.0, "half_steps": 3},
    "engine.export": {"fmt": "json", "n": 4, "beta": 1.0, "eps": 1e-6},
    **{f"diagnostics.{c}": {"check": c, "n": 3, "beta": 1.0} for c in DEFAULT_CHECKS},
    "diagnostics.export": {"n": 3, "beta": 1.0},
    "sampler.run_chains": {"replicas": 3, "half_steps": 2, "n": 2},
    "sampler.draws_to_csv": {"replicas": 3, "half_steps": 2, "n": 2},
    "cli.gen": {"argv": "gen --nx 2 --ny 2 --seed 1 --out g.json"},
    "cli.run": {"argv": "run --target target.json --out-prefix r", "banded": [3, 1.0]},
    "cli.verify": {"argv": "verify --gen 3,3,1 --out-prefix v"},
    "cli.sample": {"argv": "sample --gen 2,2,1 --replicas 10 --draws-out d.csv --out-prefix s"},
}
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def tiny_bench(monkeypatch):
    """The layer script with one tiny size per case and few short rounds;
    unloads the parent tree afterwards."""
    monkeypatch.setattr(bench, "CASES", [(layer, builder, [TINY_SIZES[layer]]) for layer, builder, _ in bench.CASES])
    monkeypatch.setattr(bench, "MIN_TIME", 0.001)
    monkeypatch.setattr(bench, "REPEATS", 3)
    yield bench
    for name in [m for m in sys.modules if m == "daflow_parent" or m.startswith("daflow_parent.")]:
        del sys.modules[name]


def test_layer_script_cases_name_every_aim1_layer():
    assert {layer for layer, _, _ in bench.CASES} == AIM1_LAYERS
    assert [name for name in vars(bench) if name.isupper()] == ["MIN_TIME", "REPEATS", "CASES"]


def test_layer_script_times_every_case_on_one_tree(tiny_bench, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = tiny_bench.main(["--out", "one.json"])
    assert json.loads((tmp_path / "one.json").read_text()) == doc
    assert [(r["layer"], r["size"]) for r in doc["rows"]] == [(layer, size) for layer, _, [size] in tiny_bench.CASES]
    for row in doc["rows"]:
        assert row.keys() == {"layer", "size", "per", "check", "us", "iqr_us", "peak_mb"}
        assert row["us"] > 0 and row["iqr_us"] >= 0 and row["peak_mb"] >= 0
    assert [r["per"] for r in doc["rows"] if r["layer"] == "engine.run"] == [3]
    # every case ran in a temporary directory of its own, removed afterwards
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.json"]
    assert numeric.stable_sum is stable_sum


def test_layer_script_compares_two_trees(tiny_bench, tmp_path):
    out = tmp_path / "two.json"
    doc = tiny_bench.main(["--parent", str(SRC), "--out", str(out)])
    # the other tree is a second copy of the package, not this one
    assert sys.modules["daflow_parent._numeric"].stable_sum is not stable_sum
    assert json.loads(out.read_text()) == doc
    assert [(r["layer"], r["size"]) for r in doc["rows"]] == [(layer, size) for layer, _, [size] in tiny_bench.CASES]
    for row in doc["rows"]:
        for side in ("parent", "change"):
            assert row[f"{side}_us"] > 0 and row[f"{side}_iqr_us"] >= 0 and row[f"{side}_peak_mb"] >= 0
        assert row["rounds"] == 3 and 0 <= row["change_wins"] <= 3


def test_layer_script_refuses_a_case_whose_trees_disagree(tiny_bench, tmp_path, monkeypatch):
    def by_package(m, entries):
        return bench.Timed(lambda: None, m.__name__)

    cases = [("numeric.stable_sum", bench.sum_case, [{"entries": 5, "data": "pmf"}]),
             ("numeric.stable_row_sums", by_package, [{"entries": 7}])]
    monkeypatch.setattr(bench, "CASES", cases)
    out = tmp_path / "refused.json"
    with pytest.raises(SystemExit, match=r"^numeric\.stable_row_sums \{'entries': 7\}: the trees give different"):
        bench.main(["--parent", str(SRC), "--out", str(out)])
    assert not out.exists()
